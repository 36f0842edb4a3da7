"""Every name the benchmark tracer wraps must exist in the library, and a
traced counterexample pass must keep the benchmark's pinned call counts, so
that a refactor cannot silently break `perfbench/run.py --trace 1`."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER_PATH = _PERFBENCH / "tracer.py"


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


def _pinned_counts():
    """COUNTEREXAMPLE_COUNTS as written in perfbench/run.py."""
    tree = ast.parse((_PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["COUNTEREXAMPLE_COUNTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no COUNTEREXAMPLE_COUNTS")


def test_traced_counterexample_keeps_the_pinned_counts(tmp_path):
    # the tracer runs in a worker process: installed here, its wrappers
    # would stay on the library for every later test
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONHASHSEED="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, str(_PERFBENCH / "worker.py"), "--workload", "counterexample", "--seed", "1",
         "--seconds", "0", "--mode", "trace", "--out", str(out)],
        env=env, check=True, timeout=300,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["errors"] == []
    calls = {**{name: row["calls"] for name, row in result["spans"].items()}, **result["counts"]}
    pins = _pinned_counts()
    assert pins and {name: calls[name] for name in pins} == pins
