"""Every function the benchmark's tracer wraps by name exists in the package.

``perfbench/tracing.py`` installs its spans with ``getattr`` on each
``(module, name)`` in ``TRACED``, so a rename or removal here would break
traced benchmark runs without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_name_is_a_package_function(module, name):
    assert callable(getattr(importlib.import_module(f"longctx.{module}"), name))
