"""toughlab: an exact-arithmetic laboratory for graph toughness.

Everything is computed with exact rationals over immutable bitset graphs:
toughness, minimal-toughness verdicts (two independent deciders), local
connectivity via unit-capacity max-flow, class recognizers, canonical forms
with isomorph-free enumeration, and an exhaustive verification harness for
the classification results on small graphs.
"""
__version__ = "0.1.0"
