"""Reproducible experiment driver.

Commands: solve | simulate | verify | rates | report. Configuration is a
flat key = value file (one key per line, ``#`` comments); every Monte Carlo
run requires a seed. Reports are CSV with a frozen column order and floats
printed at 17 significant digits, so reruns are byte-identical.

Exit codes: 0 success, 1 criterion failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .asymptotics import fit_rate, pi_of, predict_p11, predict_q
from .errors import ConfigError, CritlabError, DomainError, ParameterError, SolverError
from .kolmogorov_engine import _f_quotient, exact_R, solve_F
from .simulator import build_sim_model, estimate_survival, simulate_mbp
from .sv_kernel import Family, ModelParams, make_scale_function, nu_t_power, solve_normalizer

CSV_COLUMNS = ("experiment", "tag", "t", "exact", "predicted", "normalized_error", "method", "stderr")

# closed catalog of report tags; write_rows rejects anything else
TAG_CATALOG = frozenset({
    "q", "P11", "R", "F", "G",
    "closed-form-q", "exact-identity", "semigroup",
    "survival-second-order", "p11-second-order",
    "qproc-gf", "qproc-gf-second", "laplace-sup-rate",
    "invariant-mu", "invariant-pi", "tauberian",
    "mc-q", "mc-qcell", "mc-ks-rate",
    "quadratic-baseline", "first-order-ratio",
})
_NUMERIC_COLUMNS = ("t", "exact", "predicted", "normalized_error", "stderr")


@dataclass
class ExperimentConfig:
    family: str = "constant"
    nu: float = 0.5
    a0: float = 1.0
    t_min: float = 1.0
    t_max: float = 1000.0
    t_points: int = 7
    s_list: list = field(default_factory=lambda: [0.0, 0.5])
    mc_n: int = 10000
    i0: int = 1
    seed: int | None = None
    pop_cap: int = 10**9
    trajectories: int = 0
    threads: int = 1
    out: str = "reports"

    def t_grid(self) -> np.ndarray:
        if self.t_points < 1 or not (0.0 < self.t_min <= self.t_max < math.inf):
            raise ConfigError("t grid needs t_points >= 1 and 0 < t_min <= t_max < inf")
        if self.t_points == 1:
            return np.array([self.t_min])
        return np.geomspace(self.t_min, self.t_max, self.t_points)

    def scale_function(self):
        try:
            fam = Family(self.family)
        except ValueError:
            raise ConfigError(
                f"field 'family': unknown tag {self.family!r}; "
                f"choose from {[f.value for f in Family]}"
            ) from None
        return make_scale_function(ModelParams(self.nu, self.a0, fam))


def _parse_int(text: str) -> int:
    """An integer literal, or a float literal that is integral and at most 2**53."""
    try:
        return int(text)
    except ValueError:
        x = float(text)
    if not (x.is_integer() and abs(x) <= 2.0**53):
        raise ValueError(f"{text!r} is not an integer")
    return int(x)


_PARSERS = {
    **dict.fromkeys(
        ("t_points", "mc_n", "i0", "seed", "pop_cap", "trajectories", "threads"), _parse_int
    ),
    **dict.fromkeys(("nu", "a0", "t_min", "t_max"), float),
    **dict.fromkeys(("family", "out"), str),
    "s_list": lambda v: [float(x) for x in v.split(",") if x.strip()],
}


def _read_text(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the {what}: {exc}") from None


def parse_config(path: str | Path) -> ExperimentConfig:
    cfg = ExperimentConfig()
    text = _read_text(path, "config")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parse = _PARSERS.get(key)
        if parse is None:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        try:
            setattr(cfg, key, parse(value))
        except ValueError:
            kind = " as an integer" if parse is _parse_int else ""
            raise ConfigError(f"{path}:{lineno}: field {key!r}: cannot parse {value!r}{kind}") from None
    return cfg


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def write_rows(path: Path, rows) -> None:
    """Write a report CSV; every row is checked before the file is opened,
    so a bad tag or a non-finite cell leaves no partial report."""
    rows = list(rows)
    for row in rows:
        cells = dict(zip(CSV_COLUMNS, row))
        if cells["tag"] not in TAG_CATALOG:
            raise ConfigError(f"report tag {cells['tag']!r} is not in the catalog")
        for col in _NUMERIC_COLUMNS:
            v = cells[col]
            if v is not None and not isinstance(v, str) and not math.isfinite(v):
                raise SolverError(
                    f"report row {cells['experiment']}/{cells['tag']} at t={cells['t']:g}: "
                    f"{col} is not finite ({v})"
                )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            exp, tag, t, exact, pred, err, method, stderr = row
            fh.write(
                ",".join([str(exp), str(tag), _fmt(t), _fmt(exact), _fmt(pred),
                          _fmt(err), str(method), _fmt(stderr)]) + "\n"
            )


def read_rows(path: Path):
    """Rows of a report CSV; a short row or a non-numeric cell raises
    ConfigError naming the file and the line."""
    lines = _read_text(path, "report").splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigError(f"{path}: not a critlab report (bad header)")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ConfigError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} cells, got {len(parts)}")
        try:
            out.append(
                (parts[0], parts[1], float(parts[2]), float(parts[3] or "nan"),
                 float(parts[4] or "nan"), float(parts[5] or "nan"), parts[6], parts[7])
            )
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _rel_err(value: float, pred: float | None) -> float | None:
    """value/pred - 1; None (a blank cell) without a prediction or where both
    are 0, inf where only the prediction underflowed to 0."""
    if pred is None or value == pred == 0.0:
        return None
    return value / pred - 1.0 if pred != 0.0 else math.inf


def cmd_solve(cfg: ExperimentConfig) -> int:
    sf = cfg.scale_function()
    ts = cfg.t_grid()
    # one ODE pass over the distinct s, chained over the sorted distinct
    # horizons (a grid with t_min = t_max repeats one), made at the first row
    # that needs it; per horizon one oracle call over [0, *s_list], whose R gives
    # q, the R cells, and the quotient that is P11 at s = 1 and G at each s
    horizons, at = np.unique(ts, return_inverse=True)
    s_ode, s_at = np.unique(cfg.s_list, return_inverse=True)
    s_all, s_map = np.array([0.0, *cfg.s_list]), np.array([1.0, *cfg.s_list])
    r_odes = None
    rows = []
    for i, t in enumerate(ts):
        # predictions need t >= 1, N(t) and nonzero (nu*t)**p, else blank cells;
        # only nu*t < 1 underflows, and there p = 1+1/nu gives the smaller power
        nu_t = sf.nu * t
        predicted = (t >= 1.0 and sf.normalizer_defined(t)
                     and (nu_t >= 1.0 or nu_t ** (1.0 + 1.0 / sf.nu) > 0.0))
        r = exact_R(sf, s_all, t)
        q, *r_oracles = r.tolist()
        p11, *gs = _f_quotient(sf, s_map, 1.0 - s_all, r, t).tolist()
        pred = predict_q(sf, t) if predicted else None
        rows.append(("solve", "q", t, q, pred, _rel_err(q, pred), "oracle", ""))
        scale = nu_t_power(sf.nu, t, 1.0 + 1.0 / sf.nu, "scaled P11")
        scaled = scale * p11
        p_pred = predict_p11(sf, t) if predicted else None
        rows.append(("solve", "P11", t, scaled, p_pred, _rel_err(scaled, p_pred), "oracle", ""))
        for j, (s, r_oracle, g) in enumerate(zip(cfg.s_list, r_oracles, gs)):
            if r_odes is None:
                r_odes = solve_F(sf, s_ode, horizons)
            r_ode = float(r_odes[s_at[j], at[i]])
            rows.append((f"s={s:g}", "R", t, r_oracle, r_ode, _rel_err(r_ode, r_oracle), "ode", ""))
            if 0.0 < s < 1.0:
                gp = pi_of(sf, s) * solve_normalizer(sf, t) / scale if predicted else None
                rows.append((f"s={s:g}", "G", t, g, gp, _rel_err(g, gp), "oracle", ""))
    out = Path(cfg.out) / "solve.csv"
    write_rows(out, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("field 'seed': mandatory for simulate")
    for name, low in (("threads", 1), ("trajectories", 0)):
        if getattr(cfg, name) < low:
            raise ConfigError(f"field {name!r}: must be >= {low}, got {getattr(cfg, name)}")
    sf = cfg.scale_function()
    model = build_sim_model(sf)
    rows = []
    ts = cfg.t_grid()
    ests = estimate_survival(model, ts, cfg.mc_n, cfg.seed, i0=cfg.i0,
                             threads=cfg.threads, pop_cap=cfg.pop_cap)
    for t, est in zip(ts, ests):
        q = exact_R(sf, 0.0, t)
        exact = q if cfg.i0 == 1 else 1.0 - (1.0 - q) ** cfg.i0
        rows.append(("mc", "mc-q", t, exact, est.value, est.value - exact, "mc", est.stderr))
    out = Path(cfg.out) / "simulate.csv"
    write_rows(out, rows)
    print(f"wrote {len(rows)} rows to {out}")
    if cfg.trajectories > 0:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
        tpath = Path(cfg.out) / "trajectories.txt"
        with open(tpath, "w") as fh:
            for i in range(cfg.trajectories):
                traj = simulate_mbp(model, cfg.i0, float(ts[-1]), rng, pop_cap=cfg.pop_cap)
                for tt, zz in zip(traj.times, traj.sizes):
                    fh.write(f"{i} {_fmt(tt)} {zz}\n")
        print(f"wrote {cfg.trajectories} trajectories to {tpath}")
    return 0


def cmd_verify(cfg: ExperimentConfig, only: str | None) -> int:
    try:
        results = run_all(only)
    except KeyError as exc:
        raise ConfigError(f"--only: {exc.args[0]}") from None
    rows = []
    for r in results:
        print(r.line())
        for d in r.details[1:]:
            print(f"    {d}")
        rows.extend(r.rows)
    out = Path(cfg.out) / "acceptance.csv"
    write_rows(out, rows)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed; rows in {out}")
    return 1 if n_fail else 0


def _rows_by_tag(report_path: str) -> list[tuple[str, list]]:
    """Rows of a report grouped by tag, in tag order."""
    by_tag: dict[str, list] = {}
    for row in read_rows(Path(report_path)):
        by_tag.setdefault(row[1], []).append(row)
    return sorted(by_tag.items())


def cmd_rates(cfg: ExperimentConfig, report_path: str) -> int:
    print("tag,slope,intercept,r_squared")
    for tag, grp in _rows_by_tag(report_path):
        ts = np.array([g[2] for g in grp])
        errs = np.array([g[5] for g in grp])
        try:
            fit = fit_rate(ts=ts, residuals=errs)
        except DomainError:
            continue
        print(f"{tag},{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.r_squared)}")
    return 0


def cmd_report(cfg: ExperimentConfig, report_path: str) -> int:
    print(f"{'tag':<24}{'rows':>6}{'max|err|':>14}  methods")
    for tag, grp in _rows_by_tag(report_path):
        errs = [abs(g[5]) for g in grp if math.isfinite(g[5])]
        methods = ",".join(sorted({g[6] for g in grp}))
        print(f"{tag:<24}{len(grp):>6}{max(errs) if errs else float('nan'):>14.3e}  {methods}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="critlab", description=__doc__)
    p.add_argument("command", choices=["solve", "simulate", "verify", "rates", "report"])
    p.add_argument("report_file", nargs="?", help="input CSV for rates/report")
    p.add_argument("--config", type=str, default=None, help="flat key = value config file")
    p.add_argument("--only", type=str, default=None, help="verify: run one acceptance criterion (id or tag)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--threads", type=int, default=None, help="worker processes")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.report_file is not None and args.command not in ("rates", "report"):
            raise ConfigError(
                f"{args.command} takes no positional argument, got {args.report_file!r}; "
                f"pass a config file as --config {args.report_file}"
            )
        if args.only is not None and args.command != "verify":
            raise ConfigError(f"--only selects an acceptance criterion for verify, not {args.command}")
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.threads is not None:
            cfg.threads = args.threads
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.only)
        if args.command in ("rates", "report"):
            if not args.report_file:
                raise ConfigError(f"{args.command} needs a report CSV path")
            fn = cmd_rates if args.command == "rates" else cmd_report
            return fn(cfg, args.report_file)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, CritlabError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
