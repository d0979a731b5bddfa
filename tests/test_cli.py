"""Experiment driver: config parsing, report emission, exit codes."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critlab import acceptance, cli
from critlab.cli import CSV_COLUMNS, ExperimentConfig, main, parse_config, read_rows
from critlab.errors import ConfigError
from critlab.sv_kernel import ScaleFunction


def write_cfg(tmp_path: Path, text: str) -> str:
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


BASE = """
# minimal sweep
family = constant
nu = 0.5
a0 = 1.0
t_min = 1
t_max = 10
t_points = 2
s_list = 0
"""


def test_parse_config_defaults_and_comments(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE))
    assert cfg.family == "constant"
    assert cfg.t_points == 2
    assert cfg.s_list == [0.0]
    assert cfg.seed is None


def test_parse_config_unknown_field(tmp_path):
    path = write_cfg(tmp_path, "familly = constant\n")
    with pytest.raises(ConfigError, match="familly"):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = write_cfg(tmp_path, "nu = many\n")
    with pytest.raises(ConfigError, match="nu"):
        parse_config(path)


def test_parse_config_integers_are_exact(tmp_path):
    # integers are parsed as integers, not through a float
    cfg = parse_config(write_cfg(tmp_path, "seed = 12345678901234567891\n"))
    assert cfg.seed == 12345678901234567891
    # an integral float literal up to 2**53 is still accepted
    cfg = parse_config(write_cfg(tmp_path, "pop_cap = 1e9\nmc_n = 2e3\n"))
    assert cfg.pop_cap == 10**9 and cfg.mc_n == 2000


@pytest.mark.parametrize("line", ["mc_n = 1.5", "seed = 1e17", "threads = inf", "i0 = nan"])
def test_parse_config_rejects_non_integers(tmp_path, capsys, line):
    path = write_cfg(tmp_path, line + "\n")
    key = line.split()[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["theta_min = 1e-3", "theta_max = 1e3", "theta_points = 200", "event_budget = 10",
     "series_order = 1024"],
)
def test_removed_fields_are_unknown(tmp_path, capsys, line):
    # these fields were parsed and never read; a config naming them fails
    path = write_cfg(tmp_path, line + "\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 2
    assert "unknown field" in capsys.readouterr().err


def test_unknown_family_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "family = exotic\n")
    code = main(["solve", "--config", path, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "family" in capsys.readouterr().err


def test_solve_writes_idempotent_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "reports"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    first = (out / "solve.csv").read_bytes()
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    assert (out / "solve.csv").read_bytes() == first
    rows = read_rows(out / "solve.csv")
    assert rows and all(len(CSV_COLUMNS) == 8 for _ in rows)
    tags = {r[1] for r in rows}
    assert {"q", "R", "P11"} <= tags
    # exact column populated with the closed-form survival value at t = 1
    qrow = [r for r in rows if r[1] == "q" and r[2] == 1.0][0]
    assert qrow[3] == pytest.approx((1.5) ** -2)


def test_simulate_requires_seed(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE + "mc_n = 100\n")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r")]) == 2


def test_simulate_deterministic_and_stderr_column(tmp_path):
    path = write_cfg(tmp_path, BASE + "mc_n = 2000\nseed = 9\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
    rows = read_rows(out1 / "simulate.csv")
    for row in rows:
        p = row[4]
        assert row[7] and float(row[7]) == pytest.approx(math.sqrt(p * (1 - p) / 2000))


def test_simulate_seed_override_changes_output(tmp_path):
    path = write_cfg(tmp_path, BASE + "mc_n = 2000\nseed = 9\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["simulate", "--config", path, "--out", str(out1)])
    main(["simulate", "--config", path, "--out", str(out2), "--seed", "10"])
    assert (out1 / "simulate.csv").read_bytes() != (out2 / "simulate.csv").read_bytes()


def test_trajectory_dump(tmp_path):
    path = write_cfg(tmp_path, BASE + "mc_n = 50\nseed = 4\ntrajectories = 3\n")
    out = tmp_path / "r"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trajectories.txt").read_text().splitlines()
    ids = {line.split()[0] for line in lines}
    assert ids == {"0", "1", "2"}
    first = lines[0].split()
    assert float(first[1]) == 0.0 and int(first[2]) == 1


def test_verify_only_single_criterion(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["verify", "--only", "C1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS C1" in text
    assert (out / "acceptance.csv").exists()


def test_verify_only_accepts_tag_names(tmp_path, capsys):
    assert main(["verify", "--only", "closed-form-q", "--out", str(tmp_path / "r")]) == 0
    assert main(["verify", "--only", "bogus-tag", "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_a_positional_file_is_refused_outside_rates_and_report(tmp_path, capsys, command):
    # `critlab solve exp.cfg` once ran the default config and exited 0; the
    # file is named, and the message points at --config, before anything runs
    out = tmp_path / "r"
    assert main([command, "exp.cfg", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'exp.cfg'" in err and "--config" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "rates", "report"])
def test_only_is_refused_outside_verify(tmp_path, capsys, command):
    out = tmp_path / "r"
    report = [str(tmp_path / "in.csv")] if command in ("rates", "report") else []
    assert main([command, *report, "--only", "C1", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--only selects an acceptance criterion for verify, not {command}" in err
    assert not out.exists()


def test_verify_failing_band_exits_1(tmp_path, capsys, monkeypatch):
    # a criterion that misses its band makes verify exit 1, print the FAIL
    # line and still write the report rows
    def failing(res):
        res.passed = False
        res.details.append("forced miss")
        res.rows.append(("sup", "laplace-sup-rate", 1e6, 0.1, 2.0, 1.0, "oracle", ""))

    monkeypatch.setitem(acceptance.CRITERIA, "C7", ("laplace-sup-rate", failing))
    out = tmp_path / "r"
    assert main(["verify", "--only", "C7", "--out", str(out)]) == 1
    assert "FAIL C7 [laplace-sup-rate]" in capsys.readouterr().out
    rows = read_rows(out / "acceptance.csv")
    assert [r[1] for r in rows] == ["laplace-sup-rate"]


def test_solver_failure_exits_3(tmp_path, capsys):
    # at nu = 0.05, a0 = 1e-20 the coupled-family normalizer tends to
    # ((nu + a0)/(a0*nu))**(1/nu) = 1e400, past the largest double, so the
    # solve fails by name: a numerical failure, not a config error
    cfg = "family = coupled_drift\nnu = 0.05\na0 = 1e-20\nt_min = 1e25\nt_max = 1e25\nt_points = 1\ns_list = 0\n"
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "normalizer at t=1e+25" in err and "Traceback" not in err


def test_solve_blanks_predictions_where_normalizer_undefined(tmp_path):
    # the coupled-family normalizer exists only for t >= 1/(nu*a0) = 2; with
    # the default grid (t_min = 1) the t = 1 predictions are left blank
    path = write_cfg(tmp_path, "family = coupled_drift\n")
    out = tmp_path / "r"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = (out / "solve.csv").read_text().splitlines()
    at_one = [line.split(",") for line in lines[1:] if line.split(",")[2] == "1"]
    assert {r[1] for r in at_one} == {"q", "P11", "R", "G"}
    for r in at_one:
        assert (r[4] == "") == (r[1] != "R")  # R compares the ODE, not a prediction
    later = [line.split(",") for line in lines[1:] if line.split(",")[1] == "q"][1:]
    assert later and all(r[4] != "" for r in later)


def test_solve_blanks_predictions_where_time_scale_underflows(tmp_path, capsys):
    # at nu = 0.001, t = 1 the time scales (nu*t)**(1/nu) and (nu*t)**(1+1/nu)
    # underflow to 0.0, so no prediction is defined there: blank cells, exit 0
    cfg = "family = constant\nnu = 0.001\na0 = 1\nt_min = 1\nt_max = 1\nt_points = 1\n"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "r"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "solve.csv").read_text().splitlines()[1:]]
    assert {r[1] for r in rows} == {"q", "P11", "R", "G"}
    for r in rows:
        assert (r[4] == "") == (r[1] != "R")  # R compares the ODE, not a prediction
        # no prediction, no error: a 0 would read as exact agreement
        assert (r[5] == "") == (r[1] != "R")
    assert main(["rates", str(out / "solve.csv")]) == 0
    assert main(["report", str(out / "solve.csv")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_rates_command_recovers_slope(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    # a row without a prediction has a blank error cell, and the fit skips it
    lines = [",".join(CSV_COLUMNS), "syn,decay,1,1,,,oracle,"]
    for t in (1e1, 1e2, 1e3, 1e4, 1e5):
        lines.append(f"syn,decay,{t:.17g},1,1,{3.0 / t:.17g},oracle,")
    out.write_text("\n".join(lines) + "\n")
    assert main(["rates", str(out)]) == 0
    text = capsys.readouterr().out
    row = [l for l in text.splitlines() if l.startswith("decay")][0]
    assert float(row.split(",")[1]) == pytest.approx(-1.0, abs=1e-6)


def test_report_command_summarizes(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "r"
    main(["solve", "--config", path, "--out", str(out)])
    assert main(["report", str(out / "solve.csv")]) == 0
    text = capsys.readouterr().out
    assert "q" in text and "max|err|" in text


def test_rates_requires_input(capsys):
    assert main(["rates"]) == 2


@pytest.mark.parametrize("command", ["rates", "report"])
@pytest.mark.parametrize(
    "body, named",
    [(None, "cannot read the report"),
     ("syn,decay,10,1,1\n", ":2: expected 8 cells, got 5"),
     ("syn,decay,10,1,1,0.5,oracle,\nsyn,decay,ten,1,1,0.5,oracle,\n", ":3: could not convert")],
    ids=["missing-file", "short-row", "non-numeric-cell"],
)
def test_bad_report_file_is_named(tmp_path, capsys, command, body, named):
    # a missing or malformed report is a configuration error (exit 2) that
    # names the file and the line, not a traceback
    path = tmp_path / "in.csv"
    if body is not None:
        path.write_text(",".join(CSV_COLUMNS) + "\n" + body)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err and "Traceback" not in err


def test_missing_config_file_is_named(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: cannot read the config" in err and "Traceback" not in err


def test_simulate_csv_does_not_depend_on_threads(tmp_path):
    path = write_cfg(tmp_path, BASE + "mc_n = 1000\nseed = 9\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["simulate", "--config", path, "--out", str(out1)])
    main(["simulate", "--config", path, "--out", str(out2), "--threads", "2"])
    # seed-split batches make results independent of the worker count
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()


def test_config_t_grid_validation():
    for t_min, t_max in ((10.0, 1.0), (math.nan, 1.0), (1.0, math.inf)):
        cfg = ExperimentConfig(t_min=t_min, t_max=t_max)
        with pytest.raises(ConfigError):
            cfg.t_grid()


@pytest.mark.parametrize(
    "command, extra, code, named",
    [
        ("simulate", "seed = 1\nmc_n = 0\n", 2, "n >= 1"),
        ("simulate", "seed = 1\nmc_n = -5\n", 2, "n >= 1"),
        ("simulate", "seed = -1\nmc_n = 10\n", 2, "seed"),
        ("simulate", "seed = 1\nmc_n = 10\ni0 = 0\n", 2, "i0 must be >= 1"),
        ("simulate", "seed = 1\nmc_n = 10\npop_cap = 4611686018427387905\n", 2, "pop_cap"),
        ("simulate", "seed = 1\nmc_n = 10\npop_cap = 0\n", 2, "pop_cap = 0 and i0 = 1"),
        ("simulate", "seed = 1\nmc_n = 10\ni0 = 5\npop_cap = 5\n", 2, "pop_cap = 5 and i0 = 5"),
        ("simulate", "seed = 1\nmc_n = 10\nt_max = inf\n", 2, "t grid"),
        ("simulate", "seed = 1\nmc_n = 10\nthreads = -3\n", 2, "field 'threads': must be >= 1, got -3"),
        ("simulate --threads 0", "seed = 1\nmc_n = 10\n", 2, "field 'threads': must be >= 1, got 0"),
        ("simulate", "seed = 1\nmc_n = 10\ntrajectories = -2\n", 2,
         "field 'trajectories': must be >= 0, got -2"),
        ("solve", "t_min = nan\n", 2, "t grid"),
        ("solve", "t_min = 1e300\nt_max = 1e300\nt_points = 1\n", 3,
         "q prediction at t=1e+300: (nu*t)**2 overflows"),
        ("solve", "t_min = 1e160\nt_max = 1e160\nt_points = 1\n", 3,
         "q prediction at t=1e+160: (nu*t)**2 overflows"),
        ("solve", "a0 = 1e-300\n", 3, "normalizer"),
        ("solve", "family = coupled_drift\nnu = 0.999\na0 = 1e300\n"
         "t_min = 1.7e-122\nt_max = 1.7e-122\ns_list = 0, 0.5\n", 3,
         "backward integration from log R=[-0, -0.693147] over t=1.7e-122: floating-point"),
        ("solve", "family = binary_split\na0 = 4.2e250\n"
         "t_min = 2.1e84\nt_max = 2.1e84\nt_points = 1\ns_list = 0, 0.5\n", 3,
         "exact R at t=2.1e+84: nu*a0*t overflows"),
        ("solve", "family = coupled_drift\na0 = 1e300\nt_min = 1e10\nt_max = 1e10\nt_points = 1\n",
         3, "second-order term at t=1e+10: nu*a0*t overflows"),
        ("solve", "family = coupled_drift\nnu = 0.5\na0 = 1e-310\nt_min = 0.1\nt_max = 0.5\n"
         "s_list = 0, 0.5\n", 3, "decay rate underflows"),
        ("solve", "a0 = 5e-324\nt_min = 0.1\nt_max = 0.5\ns_list = 0, 0.9\n", 3,
         "at s=0.9, t=0.1: decay_rate(1 - s) underflows to 0"),
    ],
    ids=["mc_n-zero", "mc_n-negative", "seed-negative", "i0-zero", "pop_cap-past-2**62",
         "pop_cap-zero", "pop_cap-at-i0", "t_max-inf", "threads-negative", "threads-flag-zero",
         "trajectories-negative", "t_min-nan", "ode-overflow",
         "huge-horizon", "tiny-a0", "huge-decay-rate", "exact-R-overflow",
         "second-order-overflow", "coupled-rate-underflows", "quotient-rate-underflows"],
)
def test_accepted_configs_fail_by_name(tmp_path, capsys, command, extra, code, named):
    # parse_config accepts each of these; the run must end in a named error
    # with its exit code (2 config, 3 numerical), never in a traceback. The
    # thread and trajectory counts, also from --threads, are refused before
    # any worker starts
    path = write_cfg(tmp_path, BASE + extra)
    assert main([*command.split(), "--config", path, "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    if code == 3:
        # a numerical failure leaves no partial report behind
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "s_list, tags", [("0.5", "q P11 R G"), ("0, 0.5", "q P11 R R G")],
    ids=["R-underflows", "R-underflows-with-s-0"],
)
def test_underflowed_R_and_prediction_leave_the_error_blank(tmp_path, s_list, tags):
    # R(1; s) and its prediction both underflow to 0 here: every row reads
    # exact = predicted = 0, and 0/0 is a blank normalized_error, not a refusal
    path = write_cfg(tmp_path, BASE + "nu = 0.049\na0 = 2.7e71\nt_min = 1\nt_max = 1\n"
                     f"t_points = 1\ns_list = {s_list}\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 0
    rows = read_rows(tmp_path / "r" / "solve.csv")
    assert [row[1] for row in rows] == tags.split()
    for _, _, _, exact, predicted, err, _, _ in rows:
        assert exact == predicted == 0.0 and math.isnan(err)


@given(
    family=st.sampled_from(["constant", "coupled_drift", "binary_split"]),
    nu=st.floats(5e-324, 1.0, exclude_max=True),
    a0=st.floats(5e-324, 1.7976931348623157e308),
    t_lo=st.floats(5e-324, 1e300),
    t_hi=st.floats(5e-324, 1e300),
    t_points=st.integers(1, 3),
    s_list=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
)
# the fuzz configs that ended in a traceback, as (family, nu, a0, t_lo, t_hi,
# t_points, s_list): a subnormal nu and a subnormal nu*a0 (coupled_drift's
# domain check and its power of a base rounded above 1), then the six rows of
# test_accepted_configs_fail_by_name and the exit-0 test above
@example("coupled_drift", 5e-324, 1.7e308, 1.0, 3964229918.0875583, 3, [0.9])
@example("coupled_drift", 6.314137898210718e-129, 3.679665762276231e-186,
         5.801263953650046, 5.801263953650046, 1, [0.0, 1e-300])
@example("binary_split", 0.5, 4.2e250, 2.1e84, 2.1e84, 1, [0.0, 0.5])
@example("coupled_drift", 0.5, 1e300, 1e10, 1e10, 1, [0.0])
@example("constant", 0.049, 2.7e71, 1.0, 1.0, 1, [0.5])
@example("constant", 0.049, 2.7e71, 1.0, 1.0, 1, [0.0, 0.5])
@example("coupled_drift", 0.5, 1e-310, 0.1, 0.5, 2, [0.0, 0.5])
@example("constant", 0.5, 5e-324, 0.1, 0.5, 2, [0.0, 0.9])
@settings(max_examples=40, deadline=None)
def test_every_accepted_solve_config_runs_or_fails_by_name(
    family, nu, a0, t_lo, t_hi, t_points, s_list
):
    # exit 0 with finite cells, or 2 or 3 with the error named and no report
    text = (
        f"family = {family}\nnu = {nu!r}\na0 = {a0!r}\nt_min = {min(t_lo, t_hi)!r}\n"
        f"t_max = {max(t_lo, t_hi)!r}\nt_points = {t_points}\n"
        f"s_list = {', '.join(repr(s) for s in s_list)}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        code = _run_or_fail_by_name("solve", text, Path(tmp))
        if code == 0:
            for row in read_rows(Path(tmp) / "r" / "solve.csv"):
                assert all(math.isfinite(v) for v in row[2:6] if not math.isnan(v)), row
                assert not math.isnan(row[3]), row


def _run_or_fail_by_name(command: str, text: str, tmp: Path) -> int:
    """Exit code of ``command`` on the config ``text``, run in-process with every
    warning an error into ``tmp / "r"``, after checking that it ends in 0 with an
    empty stderr or in 2 or 3 with the error named, no traceback and no report."""
    path = tmp / "exp.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, "--config", str(path), "--out", str(tmp / "r")])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (2, 3)
        prefix = "config error: " if code == 2 else "numerical failure: "
        assert err.getvalue().startswith(prefix) and "Traceback" not in err.getvalue()
        assert not (tmp / "r" / f"{command}.csv").exists()
    return code


# bounds on the expected event counts of a `simulate` draw (a critical chain
# makes about |a1| * i0 * t events to t, and |a1| is at most 2 * a0 here)
MC_EVENT_BUDGET = 1.5e4  # mc_n * i0 * a0 * t_max, the survival estimate
PATH_EVENT_BUDGET = 2e3  # trajectories * i0 * a0 * t_max, the path dump


@st.composite
def simulate_configs(draw):
    mc_n = draw(st.integers(1, 20))
    i0 = draw(st.integers(1, 2**62 - 1))
    trajectories = draw(st.integers(0, 2))
    # a0 small enough that some t >= 5e-324 meets both budgets
    a0_max = min(1.7976931348623157e308, MC_EVENT_BUDGET / (mc_n * i0) / 5e-324)
    a0 = draw(st.floats(5e-324, a0_max))
    t_cap = MC_EVENT_BUDGET / (mc_n * i0 * a0)
    if trajectories:
        t_cap = min(t_cap, PATH_EVENT_BUDGET / (trajectories * i0 * a0))
    t_max = draw(st.floats(5e-324, max(5e-324, min(1e300, t_cap))))
    return {
        "family": draw(st.sampled_from(["constant", "coupled_drift", "binary_split"])),
        "nu": draw(st.floats(5e-324, 1.0, exclude_max=True)),
        "a0": a0,
        "t_min": draw(st.floats(5e-324, t_max)),
        "t_max": t_max,
        "t_points": draw(st.integers(1, 3)),
        "mc_n": mc_n,
        "seed": draw(st.integers(0, 2**32)),
        "i0": i0,
        "pop_cap": draw(st.integers(i0 + 1, 2**62)),
        "trajectories": trajectories,
    }


@given(cfg=simulate_configs())
# the fuzz configs that ended in a traceback: the size-biased envelope mass
# rounding to 0 at a tiny nu, a waiting time past the largest float (twice),
# then a mechanism whose coefficients overflow, an event rate |a1| * pop_cap
# that overflows, and an event time whose cumsum overflows
@example({"family": "constant", "nu": 1e-20, "a0": 1.0, "t_min": 1.0, "t_max": 1.0,
          "t_points": 1, "mc_n": 1, "seed": 1})
@example({"family": "constant", "nu": 0.3436426431051331, "a0": 1.1324592475827242e-305,
          "t_min": 9.93138277705977e-277, "t_max": 5.705930234900704e-209, "t_points": 3,
          "mc_n": 1, "seed": 0, "pop_cap": 2**62})
@example({"family": "coupled_drift", "nu": 0.14091270548894783, "a0": 1.20789564282444e-310,
          "t_min": 7.79301613583e-312, "t_max": 1.2352193484448827e-272, "t_points": 3,
          "mc_n": 50, "seed": 2147483648, "pop_cap": 100})
@example({"family": "constant", "nu": 0.5, "a0": 1.7e308, "t_min": 5e-324, "t_max": 5e-324,
          "t_points": 1, "mc_n": 1, "seed": 1, "trajectories": 1})
@example({"family": "constant", "nu": 0.5, "a0": 1e300, "t_min": 5e-324, "t_max": 5e-324,
          "t_points": 1, "mc_n": 1, "seed": 1, "i0": 10**10, "pop_cap": 2**62})
@example({"family": "constant", "nu": 0.4593643714444605, "a0": 2.129924760958669e-306,
          "t_min": 5.259084528798952e-178, "t_max": 2.4791657677840062e-05, "t_points": 3,
          "mc_n": 36, "seed": 3951215857, "i0": 3, "pop_cap": 2**62, "trajectories": 3})
@settings(max_examples=12, deadline=None)
def test_every_accepted_simulate_config_runs_or_fails_by_name(cfg):
    # exit 0 with finite cells, or 2 or 3 with the error named and no report
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    with tempfile.TemporaryDirectory() as tmp:
        if _run_or_fail_by_name("simulate", text, Path(tmp)) == 0:
            for row in read_rows(Path(tmp) / "r" / "simulate.csv"):
                assert all(math.isfinite(v) for v in row[2:6]), row


README_CFG = """
family   = coupled_drift
nu       = 0.5
a0       = 1.0
t_min    = 10       # geometric grid
t_max    = 1e6
t_points = 7
s_list   = 0, 0.5, 0.9
mc_n     = 100000
seed     = 42       # mandatory for any Monte Carlo command
out      = reports
"""


SIMULATE_SMALL_CFG = """
family       = constant
nu           = 0.5
a0           = 1
t_min        = 1
t_max        = 20
t_points     = 4
mc_n         = 20000
seed         = 4
trajectories = 25
pop_cap      = 1e5
"""


def test_simulate_small_config_is_frozen(tmp_path):
    # The Monte Carlo contract: `critlab simulate` on SIMULATE_SMALL_CFG must
    # reproduce tests/data/simulate_small/ (the survival CSV and the path
    # dump) byte for byte. A numpy or scipy upgrade may change the random
    # streams and require regenerating the files (run simulate on
    # SIMULATE_SMALL_CFG and copy both); log any regeneration, with the
    # reason, in CHANGES.md.
    path = write_cfg(tmp_path, SIMULATE_SMALL_CFG)
    out = tmp_path / "r"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    frozen = Path(__file__).parent / "data" / "simulate_small"
    for name in ("simulate.csv", "trajectories.txt"):
        assert (out / name).read_bytes() == (frozen / name).read_bytes()


_SIMULATE_IMPORTS_SCRIPT = """
import sys
from critlab.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(scipy_modules(), "multiprocessing" in sys.modules)
code = main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, scipy_modules())
from critlab import Family, G_of, ModelParams, delta_sup, exact_R, make_scale_function
from critlab import tauberian_ratio
sf = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))
exact_R(sf, 0.5, 10.0), G_of(sf, 0.5, 10.0), delta_sup(sf, 1e4)
print("oracles", scipy_modules())
tauberian_ratio(sf, 64)
print("tauberian", scipy_modules())
from critlab.acceptance import run_criterion
print("C11", run_criterion("C11").passed, scipy_modules())
code = main(["solve", "--config", sys.argv[3], "--out", sys.argv[2]])
print("solve", code, scipy_modules())
"""


def test_cli_and_simulate_load_no_scipy_or_multiprocessing(tmp_path):
    # Every scipy subpackage is imported where it is used, and a one-thread
    # run never starts a process pool, so `import critlab.cli` loads neither
    # scipy nor multiprocessing. `critlab simulate` on `constant` runs
    # without scipy: its series are closed form (no triangular solve), and
    # the sampling tables' rejection targets need no normalizer. Neither
    # exact_R, G_of and delta_sup on coupled_drift nor tauberian_ratio nor
    # C11 (exact W(t) draws and a numpy interpolant of D) needs scipy at all,
    # and neither does `critlab solve`, whose ODE pass is critlab's own
    # DOP853 stepper.
    path = write_cfg(tmp_path, SIMULATE_SMALL_CFG)
    readme = tmp_path / "readme.cfg"
    readme.write_text(README_CFG)
    src = str(Path(acceptance.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SIMULATE_IMPORTS_SCRIPT, path, str(tmp_path / "r"), str(readme)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    oracles = lines.index("oracles []")
    at_import, after_simulate = lines[0], lines[oracles - 1]
    assert at_import == "[] False"
    assert after_simulate == "0 []"
    # the exact oracles (the coupled-drift root included), the Tauberian
    # check, C11 and `critlab solve` run on numpy and math alone
    assert lines[oracles + 1 : oracles + 3] == ["tauberian []", "C11 True []"]
    assert lines[-1] == "solve 0 []"


_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a subpackage now raises ImportError
from critlab import Family, ModelParams, build_sim_model, evolve_series, make_scale_function
from critlab.acceptance import run_criterion
from critlab.cli import main
print("solve", main(["solve", "--config", sys.argv[1], "--out", sys.argv[3] + "/solve"]))
print("simulate", main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3] + "/simulate"]))
for fam in (Family.CONSTANT, Family.COUPLED_DRIFT):
    sf = make_scale_function(ModelParams(0.5, 1.0, fam))
    print(fam.value, evolve_series(sf, 256, 1.0).order)
# coupled_drift's mechanism at the default sampling order is one div of order 2**16
sf = make_scale_function(ModelParams(0.5, 0.05, Family.COUPLED_DRIFT))
print("sim model", len(build_sim_model(sf).coeffs.coeffs))
print("C8", run_criterion("C8").passed)
"""


def test_both_families_run_without_scipy(tmp_path):
    # numpy is critlab's one runtime dependency: with scipy unimportable,
    # `critlab solve` on the README config, `critlab simulate` on `constant`,
    # the series engine on both families, the coupled_drift mechanism (the
    # series quotient and its blocked triangular solves) and C8 all run
    simulate = write_cfg(tmp_path, SIMULATE_SMALL_CFG)
    readme = tmp_path / "readme.cfg"
    readme.write_text(README_CFG)
    src = str(Path(acceptance.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(readme), simulate, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")] == [
        "solve 0", "simulate 0", "constant 256", "coupled_drift 256",
        f"sim model {2**16 + 1}", "C8 True",
    ]


def test_solve_makes_one_ode_pass_and_one_oracle_call_per_horizon(tmp_path, monkeypatch):
    # the README config has 7 horizons and s_list = 0, 0.5, 0.9: one solve_F
    # call over the 3 values of s, and per horizon one oracle solve over
    # [0, *s_list], whose R gives q, P11 and every R and G cell. The oracle
    # itself is counted, so a solve made inside any other route counts too.
    shapes = {"solve_F": [], "exact_R": []}
    family_exact_R = ScaleFunction.exact_R

    def counted_solve_F(sf, s, *args, _fn=cli.solve_F):
        shapes["solve_F"].append(np.shape(s))
        return _fn(sf, s, *args)

    def counted_exact_R(self, y0, t):
        shapes["exact_R"].append(np.shape(y0))
        return family_exact_R(self, y0, t)

    monkeypatch.setattr(cli, "solve_F", counted_solve_F)
    monkeypatch.setattr(ScaleFunction, "exact_R", counted_exact_R)
    path = write_cfg(tmp_path, README_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 0
    assert shapes == {"solve_F": [(3,)], "exact_R": [(4,)] * 7}


@pytest.mark.parametrize("family", ["constant", "coupled_drift"])
def test_solve_cells_are_the_library_routes_bit_for_bit(tmp_path, family):
    # the P11 and G cells come from the one oracle result of their horizon;
    # they must be p11_exact and G_of, which solve R again, to the bit, also
    # at a0 != 1 (every frozen case has a0 = 1)
    from critlab import G_of
    from critlab.sv_kernel import nu_t_power
    from reference import p11_exact

    path = write_cfg(tmp_path, README_CFG + f"family = {family}\na0 = 3.7\n")
    cfg = parse_config(path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 0
    sf = cfg.scale_function()
    rows = read_rows(tmp_path / "r" / "solve.csv")
    p11 = [r[3] for r in rows if r[1] == "P11"]
    want = [nu_t_power(sf.nu, t, 1.0 + 1.0 / sf.nu, "P11") * p11_exact(sf, t) for t in cfg.t_grid()]
    assert np.array(p11).tobytes() == np.array(want).tobytes()
    for s in (0.5, 0.9):
        g = [r[3] for r in rows if r[:2] == (f"s={s:g}", "G")]
        assert np.array(g).tobytes() == np.array([G_of(sf, s, t) for t in cfg.t_grid()]).tobytes()


def test_solve_repeats_the_rows_of_a_repeated_s(tmp_path):
    # a repeated value of s gets its rows again, with the same bits: the ODE
    # pass runs over the distinct values, so the other rows do not move
    path = write_cfg(tmp_path, README_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "a")]) == 0
    path = write_cfg(tmp_path, README_CFG + "s_list = 0, 0.5, 0.9, 0.5\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "b")]) == 0
    once = (tmp_path / "a" / "solve.csv").read_text().splitlines()
    twice = (tmp_path / "b" / "solve.csv").read_text().splitlines()
    expected = once[:1]
    for k in range(7):  # 7 rows per horizon: q, P11, R at s = 0, then R and G at 0.5, 0.9
        block = once[1 + 7 * k: 8 + 7 * k]
        expected += block + block[3:5]
    assert twice == expected


def test_solve_readme_config_is_frozen(tmp_path):
    # The CSV contract: `critlab solve` on the README example config must
    # reproduce tests/data/solve_readme.csv byte for byte. solve loads no
    # scipy (its ODE pass is critlab's own DOP853 stepper), but a numpy or
    # BLAS upgrade may change the last digits and require regenerating the
    # file (run solve on README_CFG and copy solve.csv); log any
    # regeneration, with the reason, in CHANGES.md.
    path = write_cfg(tmp_path, README_CFG)
    out = tmp_path / "r"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    frozen = Path(__file__).parent / "data" / "solve_readme.csv"
    assert (out / "solve.csv").read_bytes() == frozen.read_bytes()
