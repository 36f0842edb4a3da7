"""Every name the benchmark tracer wraps must exist in the library, so that
a refactor cannot silently break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()


@pytest.mark.parametrize("name", _TRACER.SPANS + _TRACER.COUNTS)
def test_traced_name_resolves(name):
    mod_name, *path = name.split(".")
    obj = importlib.import_module(f"gquadforms.{mod_name}")
    if len(path) == 2:
        obj = getattr(obj, path[0])
        path = [_TRACER._ATTR.get(path[1], path[1])]
    assert callable(getattr(obj, path[0]))
