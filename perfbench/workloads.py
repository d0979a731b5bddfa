"""The four workloads of the critlab benchmark.

Every workload calls critlab only through public functions, looked up on
their modules at call time so that the traced run can substitute wrappers.
A workload builds its inputs from the run seed, runs one repetition of its
fixed work per ``run`` call, and checks the outputs:

* ``setup`` is what a user pays before the first result (timed as setup_s);
* ``prepare_checks`` computes reference values for the checks (not timed);
* ``run(rep, step)`` is one repetition (timed as wall_s); it makes its
  calls into critlab through ``step(fn, *args)``, which lets the plain run
  time each step on its own;
* ``check_rep`` checks one repetition's outputs, ``pool`` adds them to the
  run-wide statistical checks that ``finish`` evaluates;
* ``same`` says whether two repetitions produced identical program outputs.

Monte Carlo repetitions use their own seed, derived from the run seed and
the repetition index, so a run's median is taken over distinct samples;
the deterministic workloads give identical outputs on every repetition.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import critlab
from critlab import _series, asymptotics, branching_model, cli, kolmogorov_engine, simulator
from critlab.sv_kernel import Family, ModelParams, make_scale_function

NU, A0 = 0.5, 1.0
SERIES_CFG = kolmogorov_engine.SolveConfig(rel_tol=1e-11, abs_tol=1e-13)
CSV_HEADER = b"experiment,tag,t,exact,predicted,normalized_error,method,stderr"
HERE = Path(__file__).resolve().parent


def call(fn, *args, **kwargs):
    """The untimed ``step``."""
    return fn(*args, **kwargs)


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``: a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


class Checks:
    """Correctness checks of one run: how many were made, which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = ""
    mc = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def prepare_checks(self) -> None:
        pass

    def run(self, rep: int, step=call):
        raise NotImplementedError

    def check_rep(self, out, checks: Checks) -> None:
        pass

    def pool(self, out) -> None:
        pass

    def finish(self, checks: Checks) -> None:
        pass

    def same(self, a, b) -> bool:
        raise NotImplementedError

    def events(self, out) -> int:
        return 0


class _MonteCarlo(Workload):
    """Shared set-up of the Monte Carlo workloads (constant family)."""

    mc = True

    def setup(self) -> None:
        self.sf = make_scale_function(ModelParams(NU, A0, Family.CONSTANT))
        self.model = simulator.build_sim_model(self.sf)

    def events(self, out) -> int:
        return int(out.events)

    def same(self, a, b) -> bool:
        return (
            a.events == b.events
            and np.array_equal(a.sizes, b.sizes)
            and np.array_equal(a.censored, b.censored)
            and np.array_equal(a.extinction_time, b.extinction_time)
        )


class MCConditioned(_MonteCarlo):
    """Conditioned chain as ``empirical_D`` drives it: few live lanes per round.

    pop_cap 1e3 (not the 1e4 of the C11 pilot): at 1e4 one call of 512
    trajectories takes 22-35 s and is set by the slowest trajectory in each
    of its 16 batches, so no run holds enough calls for a steady median.
    At 1e3 the rounds are still narrow (about 10 live lanes on average) and
    a call takes about 3 s.
    """

    name = "mc_conditioned"
    T = 10.0
    N = 512
    POP_CAP = 10**3
    CELLS = 10

    def prepare_checks(self) -> None:
        state = kolmogorov_engine.evolve_series(self.sf, 64, self.T, SERIES_CFG)
        j = np.arange(1, self.CELLS + 1)
        self.cell_p = state.coeffs[1 : self.CELLS + 1] * j
        self.cell_counts = np.zeros(self.CELLS)
        self.pooled = 0

    def run(self, rep: int, step=call):
        # the two calls empirical_D makes, keeping the PopulationSample
        step(kolmogorov_engine.exact_R, self.sf, 0.0, self.T)
        return step(
            simulator.population_at,
            self.model,
            [self.T],
            self.N,
            rep_seed(self.seed, rep),
            conditioned=True,
            pop_cap=self.POP_CAP,
            threads=1,
        )

    def check_rep(self, out, checks: Checks) -> None:
        W = out.sizes[:, 0]
        checks.check(bool(np.all(W >= 1)), "mc_conditioned: some W < 1")
        n_cens = int(np.count_nonzero(out.censored))
        n_unc = int(np.count_nonzero(~out.censored))
        checks.check(
            n_cens + n_unc == self.N and len(W) == self.N and not out.budget_exhausted,
            "mc_conditioned: censored + uncensored != n",
        )

    def pool(self, out) -> None:
        W = out.sizes[:, 0]
        for j in range(1, self.CELLS + 1):
            self.cell_counts[j - 1] += np.count_nonzero(W == j)
        self.pooled += len(W)

    def finish(self, checks: Checks) -> None:
        n = self.pooled
        for j, (p, c) in enumerate(zip(self.cell_p, self.cell_counts), start=1):
            sd = math.sqrt(p * (1.0 - p) / n)
            z = abs(c / n - p) / sd
            checks.check(z <= 4.0, f"mc_conditioned: cell j={j} z={z:.2f} (n={n})")


class MCSurvival(_MonteCarlo):
    """Ordinary chain as ``estimate_survival`` drives it: wide rounds.

    pop_cap 100 censors the 0.2 % of trajectories that explode; a censored
    trajectory counts as alive, and 100 individuals all die by t = 5 with
    probability below 0.92**100 = 2e-4, so the survival estimate moves by
    less than 1e-6. Without the cap those few trajectories run alone for
    thousands of rounds and take about 3/4 of the time, which would put this
    workload in the straggler regime that mc_conditioned already covers.
    """

    name = "mc_survival"
    HORIZONS = (0.5, 1.0, 2.0, 5.0)
    N = 100_000
    POP_CAP = 100

    def prepare_checks(self) -> None:
        self.alive = np.zeros(len(self.HORIZONS))
        self.pooled = 0

    def run(self, rep: int, step=call):
        # the call estimate_survival makes, keeping the PopulationSample
        return step(
            simulator.population_at,
            self.model,
            self.HORIZONS,
            self.N,
            rep_seed(self.seed, rep),
            conditioned=False,
            pop_cap=self.POP_CAP,
            threads=1,
        )

    def check_rep(self, out, checks: Checks) -> None:
        Z = out.sizes
        checks.check(
            Z.shape == (self.N, len(self.HORIZONS)) and bool(np.all(Z >= 0)),
            "mc_survival: bad sizes",
        )
        checks.check(
            not np.any((Z[:, :-1] == 0) & (Z[:, 1:] != 0)),
            "mc_survival: a dead trajectory came back",
        )

    def pool(self, out) -> None:
        self.alive += np.count_nonzero(out.sizes > 0, axis=0)
        self.pooled += out.sizes.shape[0]

    def finish(self, checks: Checks) -> None:
        n = self.pooled
        for t, a in zip(self.HORIZONS, self.alive):
            p = a / n
            exact = (1.0 + t / 2.0) ** -2.0
            stderr = math.sqrt(p * (1.0 - p) / n)
            checks.check(
                abs(p - exact) <= 4.0 * stderr,
                f"mc_survival: t={t} estimate {p:.6f} vs {exact:.6f} (stderr {stderr:.2e})",
            )


class SeriesEngine(Workload):
    """The C8 invariant-measure computation: series evolution and matrices."""

    name = "series_engine"
    FAMILIES = (Family.CONSTANT, Family.COUPLED_DRIFT)
    J = 1024
    JMAX = 50
    TOL = 1e-6

    def setup(self) -> None:
        self.sfs = [make_scale_function(ModelParams(NU, A0, f)) for f in self.FAMILIES]

    def run(self, rep: int, step=call):
        out = []
        for sf in self.sfs:
            state = step(kolmogorov_engine.evolve_series, sf, self.J, 1.0, SERIES_CFG)
            out.append(step(self._residuals, sf, state))
        return tuple(out)

    def _residuals(self, sf, state):
        J, jmax = self.J, self.JMAX
        P = kolmogorov_engine.transition_matrix(state)
        one = np.zeros(J + 1)
        one[0] = 1.0
        inv_f = _series.div(one, branching_model.mechanism_series(sf, J))
        jj = np.arange(J + 1, dtype=float)
        mu = np.zeros(J + 1)
        mu[1:] = inv_f[:-1] / jj[1:]
        mu_res = float(np.max(np.abs((mu @ P)[1 : jmax + 1] - mu[1 : jmax + 1])))
        pi = mu * jj
        Q = P * jj[None, :]
        Q[0] = 0.0
        Q[1:] /= jj[1:, None]
        pi_res = float(np.max(np.abs((pi @ Q)[1 : jmax + 1] - pi[1 : jmax + 1])))
        pi_series = asymptotics.pi_coeffs(sf, jmax).coeffs
        pi_match = float(np.max(np.abs(pi_series[1 : jmax + 1] - pi[1 : jmax + 1])))
        return mu_res, pi_res, pi_match

    def check_rep(self, out, checks: Checks) -> None:
        for fam, (mu_res, pi_res, _) in zip(self.FAMILIES, out):
            checks.check(mu_res <= self.TOL, f"series_engine: {fam.value} mu residual {mu_res:.2e}")
            checks.check(pi_res <= self.TOL, f"series_engine: {fam.value} pi residual {pi_res:.2e}")

    def same(self, a, b) -> bool:
        return a == b


class AnalyticSweep(Workload):
    """``critlab solve`` on the README config, delta_sup sweep, d_limit grid."""

    name = "analytic_sweep"
    T_SUP = (1e3, 1e4, 1e5, 1e6, 1e7)
    X_GRID = np.logspace(-4.0, 6.0, 300)
    R_TOL = 1e-8

    def setup(self) -> None:
        self.sf = make_scale_function(ModelParams(NU, A0, Family.COUPLED_DRIFT))
        self.grid = asymptotics.default_theta_grid(200)

    def run(self, rep: int, step=call):
        code, csv = step(self._solve)
        sups = step(self._sups)
        vals, meta = step(asymptotics.d_limit, NU, self.X_GRID)
        return code, csv, sups, vals, meta

    def _solve(self):
        out_dir = self.workdir / "solve"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["solve", "--config", str(HERE / "readme_example.cfg"), "--out", str(out_dir)]
            )
        return code, (out_dir / "solve.csv").read_bytes() if code == 0 else b""

    def _sups(self):
        sups = []
        for t in self.T_SUP:
            try:
                sups.append(asymptotics.delta_sup(self.sf, t, self.grid))
            except critlab.SolverError:
                sups.append(None)
        return sups

    def check_rep(self, out, checks: Checks) -> None:
        code, csv, sups, vals, meta = out
        lines = csv.splitlines()
        checks.check(code == 0, f"analytic_sweep: critlab solve exited {code}")
        checks.check(bool(lines) and lines[0] == CSV_HEADER, "analytic_sweep: CSV header changed")
        r_rows = [ln.split(b",") for ln in lines[1:] if ln.split(b",")[1:2] == [b"R"]]
        checks.check(len(r_rows) == 21, f"analytic_sweep: {len(r_rows)} R rows, expected 21")
        for row in r_rows:
            oracle, ode = float(row[3]), float(row[4])
            rel = abs(ode / oracle - 1.0)
            checks.check(
                rel <= self.R_TOL, f"analytic_sweep: R {row[0]!r} t={row[2]!r} rel {rel:.2e}"
            )
        for t, s in zip(self.T_SUP, sups):
            checks.check(
                s is not None and self.grid[0] < s[1] < self.grid[-1],
                f"analytic_sweep: delta_sup argmax not interior at t={t:g}",
            )
        if all(s is not None for s in sups):
            dec = all(a[0] > b[0] for a, b in zip(sups, sups[1:]))
        else:
            dec = False
        checks.check(dec, "analytic_sweep: delta_sup not strictly decreasing in t")
        checks.check(
            not meta["flagged_indices"], f"analytic_sweep: d_limit flagged {meta['flagged_indices']}"
        )
        checks.check(
            bool(np.all(np.diff(vals) >= 0.0) and np.all((vals >= 0.0) & (vals <= 1.0))),
            "analytic_sweep: d_limit not a nondecreasing CDF in [0, 1]",
        )

    def same(self, a, b) -> bool:
        return (
            a[0] == b[0]
            and a[1] == b[1]
            and a[2] == b[2]
            and np.array_equal(a[3], b[3])
            and a[4] == b[4]
        )


WORKLOADS = {w.name: w for w in (MCConditioned, MCSurvival, SeriesEngine, AnalyticSweep)}
