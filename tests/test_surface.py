"""Public surface: every exported name resolves, and the package exports a
frozen list of names, so a removal, an addition or a rename is a deliberate
change."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import critlab

MODULES = [
    importlib.import_module(f"critlab.{m.name}") for m in pkgutil.iter_modules(critlab.__path__)
]


def test_module_all_names_resolve():
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


EXPORTS = [
    "ConfigError", "CritlabError", "DEFAULT_CFG", "DomainError",
    "EmpiricalCDF", "Family", "G_of", "MCEstimate", "ModelParams", "OffspringCoeffs",
    "OffspringDistribution", "ParameterError", "PiMeasure", "PopulationSample", "RateFit",
    "ScaleFunction", "SeriesState", "SimModel", "SolveConfig", "SolverError", "Trajectory",
    "TruncationError", "build_offspring_distribution", "build_sim_model",
    "build_size_biased_distribution", "d_limit", "delta_sup", "dkw_band", "estimate_survival",
    "evolve_series", "exact_R", "expand_coeffs", "first_order_ratio", "fit_rate",
    "identity_residual", "ks_distance", "make_scale_function", "mechanism_series",
    "normalized_error_q", "pi_coeffs", "pi_of",
    "population_at", "predict_p11", "predict_q", "psi_finite", "psi_limit",
    "qproc_gf_ratio", "qproc_gf_second_order", "sample_qprocess_exact", "simulate_mbp",
    "solve_F", "solve_normalizer", "tauberian_ratio", "transition_matrix",
]


def test_package_exports_the_frozen_names():
    names = sorted(
        n for n, v in vars(critlab).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert len(EXPORTS) == 54
    assert names == EXPORTS


def _references_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names and attribute names a module reads, leaving out its ``__all__`` and
    what a top-level def or class reads of its own name (recursion, a method
    annotated with its class)."""
    found = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        visit(stmt, own)
    return found


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # src holds only what runs: each exported name is read somewhere in
    # critlab itself (not counting __init__, __all__ or its own definition)
    # or in the benchmark scripts, so a route that only the tests reach
    # belongs in tests/reference.py instead
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert bench, "perfbench/*.py not found beside tests/"
    paths = [p for p in sorted(Path(critlab.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in paths + bench:
        used |= _references_outside_own_definition(ast.parse(path.read_text()))
    assert [name for name in EXPORTS if name not in used] == []


def test_src_uses_no_scipy_root_finder_or_special_function():
    # the coupled-drift root is a numpy Newton iteration, Gamma(2 + nu) comes
    # from math.gamma and C11's limit law is a numpy cubic Hermite, so
    # neither scipy.optimize nor scipy.special nor scipy.interpolate is needed
    for path in sorted(Path(critlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        for word in ("brentq", "scipy.optimize", "scipy.special", "scipy.interpolate", "Pchip"):
            assert word not in text, f"{path.name} mentions {word}"


def test_src_imports_no_scipy():
    # numpy is critlab's one runtime dependency: no module imports scipy or a
    # scipy subpackage, at its top or inside a function
    for path in sorted(Path(critlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path.name


def test_src_integrates_through_one_solve_ivp_call():
    # every adaptive integration is one call of the private DOP853 stepper,
    # made by kolmogorov_engine._integrate: src neither imports
    # scipy.integrate nor calls solve_ivp, and nothing builds an interpolant
    # or runs a quadrature beside it
    calls = []
    for path in sorted(Path(critlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        calls += [line for line in text.splitlines()
                  if "dop853(" in line and not line.startswith("def dop853(")]
        for word in ("scipy.integrate", "solve_ivp", "import quad", "dense_output"):
            assert word not in text, f"{path.name} mentions {word}"
    integrate = inspect.getsource(critlab.kolmogorov_engine._integrate).splitlines()
    assert len(calls) == 1 and calls[0] in integrate


def _calls_by_function(module) -> dict[str, set[str]]:
    """The names each top-level function of a module calls, as f(...) or x.f(...)."""
    out = {}
    for fn in ast.parse(inspect.getsource(module)).body:
        if isinstance(fn, ast.FunctionDef):
            out[fn.name] = {
                node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
            }
    return out


def test_second_order_statements_form_one_ratio():
    # every second-order statement's ratio is asymptotics._ratio, so only it
    # and the two predictors take the time scale (nu*t)**p or the normalizer;
    # G(t;s), pi(s) and the quotient f(F)/f(s) serve only psi_finite, the
    # transform of G itself, so no statement can divide by pi(s) or a0 again
    calls = _calls_by_function(critlab.asymptotics)

    def callers(*names):
        return {fn for fn, called in calls.items() if called & set(names)}

    assert callers("nu_t_power") == {"_ratio", "predict_q"}
    assert callers("solve_normalizer") == {"_ratio", "predict_q", "predict_p11"}
    assert callers("G_of", "pi_of", "_f_quotient") == {"psi_finite"}


_SF = critlab.make_scale_function(critlab.ModelParams(0.5, 1.0, critlab.Family.CONSTANT))
_NAN = float("nan")
_HORIZON_CALLS = {
    "solve_F": lambda m: critlab.solve_F(_SF, 0.5, _NAN),
    "exact_R": lambda m: critlab.exact_R(_SF, 0.5, _NAN),
    "identity_residual": lambda m: critlab.identity_residual(_SF, 0.5, _NAN),
    "evolve_series": lambda m: critlab.evolve_series(_SF, 16, _NAN),
    "G_of": lambda m: critlab.G_of(_SF, 0.5, _NAN),
    "solve_normalizer": lambda m: critlab.solve_normalizer(_SF, _NAN),
    "predict_q": lambda m: critlab.predict_q(_SF, _NAN),
    "predict_p11": lambda m: critlab.predict_p11(_SF, _NAN),
    "normalized_error_q": lambda m: critlab.normalized_error_q(_SF, _NAN),
    "qproc_gf_ratio": lambda m: critlab.qproc_gf_ratio(_SF, 0.5, _NAN),
    "qproc_gf_second_order": lambda m: critlab.qproc_gf_second_order(_SF, 0.5, _NAN),
    "psi_finite": lambda m: critlab.psi_finite(_SF, _NAN, 1.0),
    "delta_sup": lambda m: critlab.delta_sup(_SF, _NAN),
    "first_order_ratio": lambda m: critlab.first_order_ratio(_SF, _NAN),
    "population_at": lambda m: critlab.population_at(m, [_NAN], 10, 1),
    "estimate_survival": lambda m: critlab.estimate_survival(m, [_NAN], 10, 1),
    "sample_qprocess_exact": lambda m: critlab.sample_qprocess_exact(_SF, _NAN, 10, 1),
    "simulate_mbp": lambda m: critlab.simulate_mbp(m, 1, _NAN, np.random.default_rng(1)),
}


@pytest.fixture(scope="module")
def sim_model():
    return critlab.build_sim_model(_SF)


@pytest.mark.parametrize("name", sorted(_HORIZON_CALLS))
def test_a_nan_horizon_is_refused_by_name(name, sim_model):
    # a check written t < 0 lets nan through, to a state at t = nan, an
    # all-censored sample or a path run to extinction; every public function
    # that takes a horizon refuses it with a DomainError that shows the nan
    with pytest.raises(critlab.DomainError, match="nan"):
        _HORIZON_CALLS[name](sim_model)
