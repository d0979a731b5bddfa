"""The benchmark's workloads, run once against this checkout.

``perfbench/`` reaches critlab only through public names. A change that
deletes or renames one of them fails here, in the test suite, and not first
in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load("workloads")


def _layer_functions() -> tuple:
    # read with ast, not imported: importing run.py sets the BLAS thread variables
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_FUNCTIONS")


def test_traced_functions_resolve():
    names = _layer_functions()
    assert names
    for name in names:
        module, attr = name.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"critlab.{module}"), attr, None)
        assert callable(fn), f"perfbench traces critlab.{name}, which is not a callable"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_once_and_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    wl.setup()
    out = wl.run(0)
    checks = workloads.Checks()
    wl.check_rep(out, checks)
    assert checks.attempted > 0
    assert checks.failures == []


@pytest.mark.parametrize("name", sorted(n for n, w in workloads.WORKLOADS.items() if w.mc))
def test_traced_run_shadows_the_samplers(name, tmp_path):
    # the traced run shadows each jump law's ``sample`` on the instance, as
    # perfbench/run.py's ``install`` does; the draws must not change
    tracer = _load("spans").Tracer()
    wl = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    wl.setup()
    plain = wl.run(0)
    try:
        for which in ("offspring", "size_biased"):
            dist = getattr(wl.model, which)
            assert isinstance(dist.tail_cutoff, int)
            tracer.patch_method(dist, "sample", f"branching_model.{which}.sample")
        traced = wl.run(0)
    finally:
        tracer.unpatch()
    assert tracer.records
    assert wl.same(plain, traced)
