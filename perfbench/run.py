"""critlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_conditioned --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a critlab checkout; critlab is imported from the
checkout's ``src/``. Workloads, metrics and bounds are listed in
BENCHMARK.json, and why each is there in perfbench/design.json.

``--trace 0`` measures the end-to-end metrics: repetitions run back to back
for ``--seconds`` and wall_s is the median of their times; setup_s is the
median of several fresh processes timed from spawn to ready. Both times are
rescaled to a reference machine speed (see CAL_REF_S). ``--trace 1`` measures
the per-layer metrics: each repetition runs once plain and once with spans
around the public critlab functions, and the two must give identical
outputs. Every run checks the program's outputs.

The last line of standard output is the result, {"correct", "attempted",
"failed", "metrics"}; the line before it is the run record (versions, seed,
sample counts, failed checks). Both are also written to .perfbench/ at the
checkout root, with the spans of a traced run.
"""

import os

# one process and one BLAS thread: the reference machine has 2 shared cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
# The reference machine's speed drifts by up to 1.5x over tens of seconds
# and swings faster within a second (2 shared cores; CPU time follows wall
# time, so this is not preemption). Each timed step is rescaled by the time
# of fixed Python-and-numpy loops run just before and just after it. Over 5
# minutes of strong drift this cut the spread (IQR) of 30-s medians of
# workload calls from 20-30 % to 4-10 %; in quiet periods it gains little.
# CAL_REF_S is the loops' time at the reference speed: it sets the unit.
CAL_REF_S = 0.03
CAL_LOOPS = 4
SETUP_BUILDS = 3
SETUP_REP = -1  # repetition id of the traced sampling-table builds
KERNEL_SIZES = (256, 1024, 4096)

# public functions wrapped in spans by the traced run, as <module>.<name>
LAYER_FUNCTIONS = (
    "simulator.population_at",
    "branching_model.expand_coeffs",
    "branching_model.build_offspring_distribution",
    "branching_model.build_size_biased_distribution",
    "_series.powf",
    "_series.div",
    "_series.mul",
    "kolmogorov_engine.evolve_series",
    "kolmogorov_engine.transition_matrix",
    "kolmogorov_engine.solve_F",
    "kolmogorov_engine.exact_R",
    "kolmogorov_engine.G_of",
    "asymptotics.delta_sup",
    "asymptotics.d_limit",
    "asymptotics.predict_q",
    "asymptotics.predict_p11",
    "laplace.talbot",
    "laplace.gaver_stehfest",
    "sv_kernel.solve_normalizer",
    "cli.main",
)
BUILD_FUNCTIONS = LAYER_FUNCTIONS[1:4]
SAMPLERS = ("offspring", "size_biased")
CALLS = (
    "branching_model.offspring.sample",
    "branching_model.size_biased.sample",
    "_series.powf",
    "_series.div",
    "_series.mul",
    "kolmogorov_engine.evolve_series",
    "kolmogorov_engine.solve_F",
    "kolmogorov_engine.exact_R",
    "kolmogorov_engine.G_of",
    "asymptotics.delta_sup",
    "asymptotics.d_limit",
    "asymptotics.predict_q",
    "asymptotics.predict_p11",
    "laplace.talbot",
    "laplace.gaver_stehfest",
    "sv_kernel.solve_normalizer",
)
SELF_TIMES = CALLS + (
    "simulator.population_at",
    "kolmogorov_engine.transition_matrix",
    "cli.main",
)


def metric_name(span: str) -> str:
    """Metric names start with a letter: critlab._series is the series layer."""
    return span.lstrip("_")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("round_width"):
        return "lanes"
    if name.endswith((".defect", ".max_disagreement")):
        return "1"
    return "count"


def _count_population(tr, out):
    tr.count("simulator.events", out.events)
    tr.count("simulator.censored", int(out.censored.sum()))
    tr.count("simulator.trajectories", len(out.censored))


def _max_counter(key, value_of):
    def on_result(tr, out):
        k = (tr.rep_id, key)
        tr.counters[k] = max(tr.counters[k], value_of(out))

    return on_result


ON_RESULT = {
    "simulator.population_at": _count_population,
    "kolmogorov_engine.evolve_series": _max_counter(
        "kolmogorov_engine.evolve_series.defect", lambda out: out.defect
    ),
    "asymptotics.d_limit": _max_counter(
        "asymptotics.d_limit.max_disagreement", lambda out: out[1]["max_disagreement"]
    ),
}


def _count_draws(prefix, cutoff):
    draws, escapes = prefix + ".draws", prefix + ".escapes"

    def on_result(tr, out):
        tr.count(draws, len(out))
        tr.count(escapes, np.count_nonzero(out > cutoff))

    return on_result


def install(tracer, names, model=None) -> None:
    """Wrap the named public functions, and the samplers of ``model``."""
    for name in names:
        mod, attr = name.rsplit(".", 1)
        fn = getattr(importlib.import_module("critlab." + mod), attr)
        tracer.patch(fn, name, ON_RESULT.get(name))
    if model is not None:
        for which in SAMPLERS:
            dist = getattr(model, which)
            prefix = "branching_model." + which
            tracer.patch_method(
                dist, "sample", prefix + ".sample", _count_draws(prefix, dist.tail_cutoff)
            )


def _numpy_loop() -> None:
    rng = np.random.default_rng(0)
    x = np.zeros(16)
    for _ in range(2000):
        x += rng.random(16)


def _round_loop() -> None:
    # shaped like a simulator round: small numpy calls driven from Python
    rng = np.random.default_rng(0)
    pop = np.ones(32, dtype=np.int64)
    t = np.zeros(32)
    for _ in range(300):
        tn = t + rng.exponential(1.0, 32) / (1.5 * pop)
        cross = tn >= 1.0
        pop[np.flatnonzero(cross)] += 1
        pop = np.maximum(pop + rng.integers(0, 3, 32) - 1, 1)
        t = np.where(cross, 0.0, tn)


def calibration() -> float:
    """The machine's speed now: the time of a fixed run of two loops,
    repeated so that it averages the speed over about 30 ms."""
    t0 = time.perf_counter()
    for _ in range(CAL_LOOPS):
        _numpy_loop()
        _round_loop()
    return time.perf_counter() - t0


class RefClock:
    """Times the steps of a repetition and rescales each to the reference
    speed; ``close`` ends the repetition and records its total."""

    def __init__(self):
        calibration()  # the first call pays for warming up
        self.cal = calibration()
        self.cals: list[float] = [self.cal]
        self.raw: list[float] = []
        self.ref: list[float] = []
        self._raw = self._ref = 0.0

    def step(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(time.perf_counter() - t0)
        return out

    def add(self, dt: float) -> None:
        """Count a step that took ``dt`` seconds and ended just now."""
        cal = calibration()
        self._raw += dt
        self._ref += dt * CAL_REF_S / (0.5 * (self.cal + cal))
        self.cals.append(cal)
        self.cal = cal

    def close(self) -> None:
        self.raw.append(self._raw)
        self.ref.append(self._ref)
        self._raw = self._ref = 0.0


def probe_setup(workload: str, seed: int) -> float:
    """Spawn-to-ready time of a fresh process doing the workload's set-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        t_ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return t_ready - t0


def time_setups(workload: str, seed: int) -> RefClock:
    clock = RefClock()
    for _ in range(SETUP_PROBES):
        clock.add(probe_setup(workload, seed))
        clock.close()
    return clock


def kernel_times() -> dict[str, float]:
    """Median time per call of the series kernels at fixed sizes."""
    from critlab import _series

    out = {}
    for J in KERNEL_SIZES:
        y = _series.binom_series(0.5, J)  # y[0] = 1: a unit with positive head
        a = _series.binom_series(1.5, J)
        calls = {
            "powf": lambda: _series.powf(y, 1.5),
            "div": lambda: _series.div(a, y),
            "mul": lambda: _series.mul(a, y),
        }
        for kernel, call in calls.items():
            times = []
            for _ in range(max(3, 4096 // J)):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"series.{kernel}.J{J}_s"] = statistics.median(times)
    return out


def _keep_going(start: float, now: float, times: list[float], seconds: float) -> bool:
    # start another repetition if, on median, it ends at most half a
    # repetition past the budget
    return now - start + 0.5 * statistics.median(times) < seconds


def plain_run(wl, seconds, checks):
    clock = RefClock()
    events = []
    first = None
    start = time.perf_counter()
    rep = 0
    while True:
        out = wl.run(rep, clock.step)
        clock.close()
        events.append(wl.events(out))
        wl.check_rep(out, checks)
        wl.pool(out)
        if not wl.mc:
            if first is None:
                first = out
            else:
                checks.check(wl.same(first, out), f"{wl.name}: rep {rep} differs from rep 0")
        del out
        rep += 1
        if not _keep_going(start, time.perf_counter(), clock.raw, seconds):
            return clock, events


def traced_run(wl, seconds, checks, tracer):
    """Pairs of one plain and one traced repetition on the same inputs."""
    if wl.mc:
        tracer.rep_id = SETUP_REP
        install(tracer, BUILD_FUNCTIONS)
        try:
            from critlab import simulator

            for _ in range(SETUP_BUILDS):
                simulator.build_sim_model(wl.sf)
        finally:
            tracer.unpatch()
    traced_run_rep = tracer.wrap("rep", wl.run)
    ratios, pair_times = [], []
    first = None
    start = time.perf_counter()
    pair = 0
    while True:
        t0 = time.perf_counter()
        base = wl.run(pair)
        t1 = time.perf_counter()
        wl.check_rep(base, checks)
        wl.pool(base)
        tracer.rep_id = pair
        install(tracer, LAYER_FUNCTIONS, wl.model if wl.mc else None)
        try:
            t2 = time.perf_counter()
            traced = traced_run_rep(pair)
            t3 = time.perf_counter()
        finally:
            tracer.unpatch()
        wl.check_rep(traced, checks)
        checks.check(wl.same(base, traced), f"{wl.name}: traced rep {pair} differs from plain")
        if not wl.mc:
            if first is None:
                first = base
            else:
                checks.check(wl.same(first, base), f"{wl.name}: rep {pair} differs from rep 0")
        del base, traced
        ratios.append((t3 - t2) / (t1 - t0))
        pair_times.append(t3 - t0)
        pair += 1
        if not _keep_going(start, t3, pair_times, seconds):
            return pair, ratios


def layer_metrics(tracer, pairs: int, ratios: list[float]) -> dict[str, float]:
    t = tracer.table()
    ids = {n: i for i, n in enumerate(tracer.names)}
    rep = t["rep"]
    in_rep = rep >= 0

    def spans(name):
        return t["name"] == ids.get(name, -1)

    def per_rep(mask, weights=None):
        m = mask & in_rep
        w = None if weights is None else weights[m]
        return np.bincount(rep[m], weights=w, minlength=pairs)[:pairs]

    def median(values):
        return float(np.median(values)) if len(values) else 0.0

    def counter(key):
        return np.array([tracer.counters.get((r, key), 0.0) for r in range(pairs)])

    def ratio(num, den):
        return float(num / den) if den else 0.0

    m = {}
    for name in CALLS:
        m[metric_name(name) + ".calls"] = median(per_rep(spans(name)))
    for name in SELF_TIMES:
        m[metric_name(name) + ".self_s"] = median(per_rep(spans(name), t["self"]))

    # a round is one offspring draw made directly by population_at
    parent_name = np.where(t["parent"] >= 0, t["name"][t["parent"]], -1)
    under_population = parent_name == ids.get("simulator.population_at", -2)
    rounds = per_rep(spans("branching_model.offspring.sample") & under_population)
    draws = counter("branching_model.offspring.draws")
    m["simulator.events"] = median(counter("simulator.events"))
    m["simulator.rounds"] = median(rounds)
    m["simulator.round_width"] = ratio(draws.sum(), rounds.sum())
    m["simulator.censored_frac"] = ratio(
        counter("simulator.censored").sum(), counter("simulator.trajectories").sum()
    )
    for which in SAMPLERS:
        prefix = "branching_model." + which
        m[prefix + ".sample.draws"] = median(counter(prefix + ".draws"))
        m[prefix + ".escape_frac"] = ratio(
            counter(prefix + ".escapes").sum(), counter(prefix + ".draws").sum()
        )
    for name in BUILD_FUNCTIONS:
        m[name + ".s"] = median(t["dur"][spans(name) & (rep == SETUP_REP)])

    # an ODE right-hand side of the series engine makes exactly one powf call
    evolve = ids.get("kolmogorov_engine.evolve_series", -2)
    under = np.zeros(len(rep), dtype=bool)  # has an evolve_series ancestor
    anc = t["parent"].copy()
    while np.any(anc >= 0):
        live = anc >= 0
        under[live] |= t["name"][anc[live]] == evolve
        anc[live] = t["parent"][anc[live]]
    m["kolmogorov_engine.evolve_series.rhs_evals"] = median(per_rep(spans("_series.powf") & under))
    for key in ("kolmogorov_engine.evolve_series.defect", "asymptotics.d_limit.max_disagreement"):
        m[key] = float(counter(key).max(initial=0.0))
    m.update(kernel_times())
    m["trace.overhead_frac"] = median(ratios) - 1.0
    return m


def git_sha():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def tail_percentile(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100.0 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "critlab" / "__init__.py").is_file():
        print(f"perfbench: no critlab source at {src / 'critlab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import scipy

    import critlab
    import workloads
    from spans import Tracer

    if Path(critlab.__file__).resolve().parent != (src / "critlab").resolve():
        print(f"perfbench: critlab imported from {critlab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    checks = workloads.Checks()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "critlab": critlab.__version__,
        "git_sha": git_sha(),
    }
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        wl.setup()
        wl.prepare_checks()
        if args.trace:
            tracer = Tracer()
            pairs, ratios = traced_run(wl, args.seconds, checks, tracer)
            values = layer_metrics(tracer, pairs, ratios)
            tracer.save(OUT / f"spans-{args.workload}.npz")
            record["samples"] = {"traced_reps": pairs, "setup_builds": SETUP_BUILDS if wl.mc else 0}
        else:
            setups = time_setups(args.workload, args.seed)
            reps, events = plain_run(wl, args.seconds, checks)
            values = {
                "wall_s": statistics.median(reps.ref),
                "setup_s": statistics.median(setups.ref),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record["samples"] = {
                "wall_s": len(reps.ref), "setup_s": len(setups.ref), "peak_rss_mb": 1
            }
            record["wall_s_tail"] = tail_percentile(reps.ref)
            record["raw"] = {
                "wall_s": statistics.median(reps.raw),
                "setup_s": statistics.median(setups.raw),
                "calibration_s": statistics.median(reps.cals + setups.cals),
                "rep_times_s": reps.raw,
                "setup_times_s": setups.raw,
            }
            if wl.mc:
                record["events_per_s"] = {"value": sum(events) / sum(reps.raw), "unit": "1/s"}
                record["events_per_rep"] = statistics.median(events)
        wl.finish(checks)

    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    wanted = {(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {(name, m["unit"]) for name, m in metrics.items()}
    checks.check(
        wanted == got,
        f"metrics differ from BENCHMARK.json: missing {sorted(wanted - got)}, "
        f"extra {sorted(got - wanted)}",
    )
    record["check_fail_frac"] = len(checks.failures) / checks.attempted
    record["check_failures"] = checks.failures
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
