"""Every name the package exports, or the benchmark's tracer wraps, exists.

``perfbench/tracing.py`` installs its spans with ``getattr`` on each
``(module, name)`` in ``TRACED``, so a rename or removal here would break
traced benchmark runs without failing any other test. Likewise a name
left in a module's ``__all__`` after its definition is deleted breaks
only ``from longctx.<module> import *``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import longctx

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_name_is_a_package_function(module, name):
    assert callable(getattr(importlib.import_module(f"longctx.{module}"), name))


# __main__ runs the CLI on import, and exports nothing.
MODULES = sorted(m.name for m in pkgutil.iter_modules(longctx.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"longctx.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
