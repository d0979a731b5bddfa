"""Public surface: every exported name resolves, and the package exports a
frozen list of names, so a removal, an addition or a rename is a deliberate
change."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import critlab

MODULES = [
    importlib.import_module(f"critlab.{m.name}") for m in pkgutil.iter_modules(critlab.__path__)
]


def test_module_all_names_resolve():
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


EXPORTS = [
    "AsymptoticPrediction", "ConfigError", "CritlabError", "DEFAULT_CFG", "DomainError",
    "EmpiricalCDF", "Family", "G_of", "MCEstimate", "ModelParams", "OffspringCoeffs",
    "OffspringDistribution", "ParameterError", "PiMeasure", "PopulationSample", "RateFit",
    "ScaleFunction", "SeriesState", "SimModel", "SolveConfig", "SolverError", "Trajectory",
    "TruncationError", "build_offspring_distribution", "build_sim_model",
    "build_size_biased_distribution", "d_limit", "delta_sup", "dkw_band", "estimate_survival",
    "evolve_series", "exact_R", "expand_coeffs", "first_order_ratio", "fit_rate",
    "identity_residual", "ks_distance", "make_scale_function", "mechanism_series",
    "normalized_error_p11", "normalized_error_q", "p11_exact", "pi_coeffs", "pi_of",
    "population_at", "predict_p11", "predict_q", "psi_finite", "psi_limit",
    "qproc_gf_ratio", "qproc_gf_second_order", "sample_qprocess_exact", "simulate_mbp",
    "solve_F", "solve_normalizer", "tauberian_ratio", "transition_matrix",
]


def test_package_exports_the_frozen_names():
    names = sorted(
        n for n, v in vars(critlab).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert len(EXPORTS) == 57
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
