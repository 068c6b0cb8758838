"""The names perfbench/traced.py patches exist in the package.

traced.py replaces names in toughlab's module namespaces with timing
wrappers.  A refactor that renames or drops one of them would only show
when ``perfbench/run.py --trace 1`` runs; this test reads the tables
from the script itself and checks each name.
"""
import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    traced = _traced()
    for mod, calls in traced._CALLS.items():
        module = importlib.import_module(f"toughlab.{mod}")
        for name in calls:
            assert callable(getattr(module, name, None)), f"toughlab.{mod}.{name}"
    cli = importlib.import_module("toughlab.cli")
    for name in traced._SCANS:
        assert callable(getattr(cli, name, None)), f"toughlab.cli.{name}"
    verify = importlib.import_module("toughlab.verify")
    for name in traced.CACHES:
        assert hasattr(getattr(verify, name, None), "cache_info"), f"toughlab.verify.{name}"
    assert callable(getattr(verify, "enumerate_graphs", None))
