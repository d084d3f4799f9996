"""Every name the benchmark harness binds must exist in the package.

perfbench/tracing.py wraps each SPANNED function by name and perfbench/run.py
calls public names, so deleting one of them breaks the benchmark; this test
makes such a deletion fail here instead.
"""

import importlib
from pathlib import Path

import splatvid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spanned_names_are_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for mod_name, fns in tracing.SPANNED.items():
        mod = importlib.import_module(f"splatvid.{mod_name}")
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"splatvid.{mod_name}.{fn}"


def test_public_names_resolve():
    for name in splatvid.__all__:
        assert hasattr(splatvid, name), name
