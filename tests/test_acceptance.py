"""Acceptance suite: every committed band at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line (run pytest with -s
to see them inline) and asserts the stated band plus the runtime budget.

Two criteria rest on derivations recorded in ``critlab.acceptance``:

* C7: the sup over theta of the Laplace-transform gap carries the maximum
  M(nu) of its second-order theta profile (27/256 for nu = 1/2), so the
  band [0.8, 1.2] is placed on the sup normalized by M(nu); the constant
  is checked against a 60-digit route in
  test_asymptotics.py::test_delta_sup_matches_mpmath_route_and_profile_constant.
* C11: W(t) is drawn exactly from its mixed-Poisson representation for the
  constant family, so the stated n = 1e6 at t up to 1e3 runs in seconds;
  the expected Kolmogorov distance and its DKW band are fixed before the
  run, and a wrong mixing law fails the same check
  (test_simulator.py::test_c11_band_rejects_wrong_mixing_law).

Each criterion's report rows must also reproduce, byte for byte, its lines
of ``data/acceptance.csv``, the frozen output of ``critlab verify``.
"""

from pathlib import Path

from critlab.acceptance import CRITERIA, run_criterion
from critlab.cli import write_rows

FIXTURE = Path(__file__).parent / "data" / "acceptance.csv"

RUNTIME_BUDGETS = {
    "C1": 1.0,
    "C2": 30.0,
    "C3": 10.0,
    "C4": 5.0,
    "C5": 5.0,
    "C6": 30.0,
    "C7": 60.0,
    "C8": 120.0,
    "C9": 10.0,
    "C10": 120.0,
    "C11": 600.0,
    "C12": 5.0,
}


# the report tags of each criterion's rows, which pick its lines out of the fixture
ROW_TAGS = {
    "C1": {"q"},
    "C2": {"exact-identity"},
    "C3": {"F"},
    "C4": {"survival-second-order"},
    "C5": {"p11-second-order"},
    "C6": {"qproc-gf", "qproc-gf-second"},
    "C7": {"laplace-sup-rate"},
    "C8": {"invariant-mu", "invariant-pi"},
    "C9": {"tauberian"},
    "C10": {"mc-q", "mc-qcell"},
    "C11": {"mc-ks-rate"},
    "C12": {"quadratic-baseline", "first-order-ratio"},
}


def _fixture_lines(cid: str) -> list[str]:
    return [line for line in FIXTURE.read_text().splitlines()[1:]
            if line.split(",")[1] in ROW_TAGS[cid]]


def _run(cid: str, tmp_path: Path):
    # by catalog tag, so the tag route is exercised for every criterion
    tag = CRITERIA[cid][0]
    res = run_criterion(tag)
    assert (res.cid, res.tag) == (cid, tag)
    print()
    print(res.line())
    assert res.runtime <= RUNTIME_BUDGETS[cid], (
        f"{cid} exceeded its runtime budget: {res.runtime:.1f}s > {RUNTIME_BUDGETS[cid]}s"
    )
    assert res.passed, "; ".join(res.details)
    out = tmp_path / "rows.csv"
    write_rows(out, res.rows)
    assert out.read_text().splitlines()[1:] == _fixture_lines(cid), (
        f"{cid} rows differ from {FIXTURE.name}"
    )
    return res


def test_fixture_lines_each_belong_to_one_criterion():
    assert ROW_TAGS.keys() == CRITERIA.keys()
    n_lines = len(FIXTURE.read_text().splitlines()) - 1
    assert sum(len(_fixture_lines(cid)) for cid in CRITERIA) == n_lines


def test_c1_closed_form_equivalence(tmp_path):
    _run("C1", tmp_path)


def test_c2_exact_integral_identity(tmp_path):
    _run("C2", tmp_path)


def test_c3_semigroup(tmp_path):
    _run("C3", tmp_path)


def test_c4_survival_second_order(tmp_path):
    _run("C4", tmp_path)


def test_c5_p11_second_order(tmp_path):
    _run("C5", tmp_path)


def test_c6_conditioned_gf_expansion(tmp_path):
    _run("C6", tmp_path)


def test_c7_laplace_sup_rate(tmp_path):
    # band on the profile-normalized sup: see module docstring
    _run("C7", tmp_path)


def test_c8_invariant_measures(tmp_path):
    _run("C8", tmp_path)


def test_c9_tauberian_partial_sums(tmp_path):
    _run("C9", tmp_path)


def test_c10_monte_carlo_triangle(tmp_path):
    _run("C10", tmp_path)


def test_c11_monte_carlo_ks_rate(tmp_path):
    # exact W(t) draws and a band fixed in advance: see module docstring
    _run("C11", tmp_path)


def test_c12_baselines(tmp_path):
    _run("C12", tmp_path)
