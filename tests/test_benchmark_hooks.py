"""Every name the benchmark tracer patches, and every name a module exports,
exists in the package.

``benchmarks/tracer.py`` wraps functions at the module attributes its
callers look them up by; a renamed or deleted attribute would only surface
in a traced benchmark run.  The tracer is read with ``runpy`` (no bytecode
written next to it) and none of its patches is installed.
"""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import trigmoment

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(trigmoment.__path__))


def tracer_hooks():
    names = runpy.run_path(str(TRACER))
    return sorted({hook for table in (names["SPANS"], names["COUNTS"])
                   for hooks in table.values() for hook in hooks})


def test_tracer_hooks_resolve():
    hooks = tracer_hooks()
    assert hooks
    for module, attr in hooks:
        mod = importlib.import_module(f"trigmoment.{module}")
        assert callable(getattr(mod, attr, None)), f"trigmoment.{module}.{attr}"


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_exist(module):
    mod = importlib.import_module(f"trigmoment.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
