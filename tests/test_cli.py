"""Experiment driver: config parsing, report emission, exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from critlab import acceptance
from critlab.acceptance import CriterionResult
from critlab.cli import CSV_COLUMNS, ExperimentConfig, main, parse_config, read_rows
from critlab.errors import ConfigError


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


def test_verify_failing_band_exits_1(tmp_path, capsys, monkeypatch):
    # a criterion that misses its band makes verify exit 1, print the FAIL
    # line and still write the report rows
    def failing():
        res = CriterionResult("C7", "laplace-sup-rate", False, details=["forced miss"])
        res.rows.append(("sup", "laplace-sup-rate", 1e6, 0.1, 2.0, 1.0, "oracle", ""))
        return res

    monkeypatch.setitem(acceptance.CRITERIA, "C7", failing)
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


def test_rates_command_recovers_slope(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    lines = [",".join(CSV_COLUMNS)]
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


def test_threads_env_fallback(tmp_path):
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
        ("solve", "t_min = nan\n", 2, "t grid"),
        ("solve", "t_min = 1e300\nt_max = 1e300\nt_points = 1\n", 3,
         "q prediction at t=1e+300: (nu*t)**2 overflows"),
        ("solve", "t_min = 1e160\nt_max = 1e160\nt_points = 1\n", 3,
         "q prediction at t=1e+160: (nu*t)**2 overflows"),
        ("solve", "a0 = 1e-300\n", 3, "normalizer"),
    ],
    ids=["mc_n-zero", "mc_n-negative", "seed-negative", "i0-zero", "pop_cap-past-2**62",
         "pop_cap-zero", "pop_cap-at-i0", "t_max-inf", "t_min-nan", "ode-overflow",
         "huge-horizon", "tiny-a0"],
)
def test_accepted_configs_fail_by_name(tmp_path, capsys, command, extra, code, named):
    # parse_config accepts each of these; the run must end in a named error
    # with its exit code (2 config, 3 numerical), never in a traceback
    path = write_cfg(tmp_path, BASE + extra)
    assert main([command, "--config", path, "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    if code == 3:
        # a numerical failure leaves no partial report behind
        assert not (tmp_path / "r").exists()


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
"""


def test_cli_and_simulate_load_no_scipy_or_multiprocessing(tmp_path):
    # Every scipy subpackage is imported where it is used, and a one-thread
    # run never starts a process pool, so `import critlab.cli` loads neither
    # scipy nor multiprocessing. `critlab simulate` on `constant` runs
    # without scipy: its series are closed form (no triangular solve), and
    # the sampling tables' rejection targets need no normalizer.
    path = write_cfg(tmp_path, SIMULATE_SMALL_CFG)
    src = str(Path(acceptance.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SIMULATE_IMPORTS_SCRIPT, path, str(tmp_path / "r")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    at_import, after_simulate = lines[0], lines[-1]
    assert at_import == "[] False"
    assert after_simulate == "0 []"


def test_solve_readme_config_is_frozen(tmp_path):
    # The CSV contract: `critlab solve` on the README example config must
    # reproduce tests/data/solve_readme.csv byte for byte. A numpy or scipy
    # upgrade may change the last digits and require regenerating the file
    # (run solve on README_CFG and copy solve.csv); log any regeneration,
    # with the reason, in CHANGES.md.
    path = write_cfg(tmp_path, README_CFG)
    out = tmp_path / "r"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    frozen = Path(__file__).parent / "data" / "solve_readme.csv"
    assert (out / "solve.csv").read_bytes() == frozen.read_bytes()
