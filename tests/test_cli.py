import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rotobh import __version__, cli, oracle, sensing
from rotobh.cli import _dtheta_steps, load_config, main, parse_grid
from rotobh.errors import ConfigError
from rotobh.io import parse_csv
from rotobh.sensing import delta_change, fit_form

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(argv):
    """main() with captured streams; returns (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_parse_grid_forms():
    g = parse_grid("0.1:0.5:0.1")
    assert len(g) == 5
    assert abs(g[0] - 0.1) < 1e-15 and abs(g[-1] - 0.5) < 1e-12
    assert parse_grid("1,2,3") == (1.0, 2.0, 3.0)
    assert parse_grid("0.7") == (0.7,)
    assert parse_grid(" 0.7 ") == (0.7,)
    # inclusive endpoint survives rounding in the step count
    assert len(parse_grid("0.3:1.2:0.1")) == 10


def test_parse_grid_rejects_garbage():
    # 0:1e308:1e-300 overflows the point count to inf (huge finite counts
    # are not probed: they would allocate)
    for bad in ("", "abc", "1:2", "1:2:3:4", "2:1:0.5", "1:2:-0.1",
                "1:2:0", "1,two,3", "0:1e308:1e-300"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_bad_requests_exit_2_without_output(tmp_path):
    out = tmp_path / "never.csv"
    for argv in (["resolution", "--theta-grid", "0:1e308:1e-300"],
                 ["costheta-curve", "--t-grid", "0.5", "--lobes", "1.5"],
                 ["phase-diagram", "--psi-method", "variational",
                  "--n-max", "3", "--mu-grid", "1.0", "--d-grid", "0.05,0.5"]):
        status, _, err = run_cli(argv + ["--output", str(out)])
        assert status == 2, argv
        assert not out.exists()
        assert "rotobh: error:" in err


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ntheta-grid = 0.5,0.9\n\nmode=fit # tail\n",
                   encoding="utf-8")
    assert load_config(str(cfg)) == {"theta-grid": "0.5,0.9", "mode": "fit"}
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_phase_diagram_csv(tmp_path):
    out = tmp_path / "grid.csv"
    # grids that open with a minus sign need the --flag=value spelling,
    # as usual with argparse
    status, _, _ = run_cli(["phase-diagram", "--mu-grid=-0.5,0.5,1.0",
                            "--d-grid", "0.05,0.5", "--output", str(out)])
    assert status == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# rotobh v1 phase-diagram\n")
    sub, cols, rows = parse_csv(text)
    assert sub == "phase-diagram"
    assert cols == ("mu_over_U", "D_eff", "lobe_n", "phase", "psi")
    assert len(rows) == 6
    labels = {(r[0], r[1]): r[3] for r in rows}
    assert labels[(-0.5, 0.05)] == "vacuum"
    assert labels[(1.0, 0.05)] == "mott:1"
    assert labels[(1.0, 0.5)] == "superfluid"


def test_stdout_default():
    status, out, err = run_cli(["phase-diagram", "--mu-grid", "1.0",
                                "--d-grid", "0.1"])
    assert status == 0
    assert err == ""
    sub, cols, rows = parse_csv(out)
    assert sub == "phase-diagram" and len(rows) == 1


def test_byte_identical_reruns(tmp_path):
    args = ["phase-diagram", "--mu-grid", "0.1:1.9:0.2",
            "--d-grid", "0.05:0.45:0.05"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--output", str(a)])[0] == 0
    assert run_cli(args + ["--output", str(b), "--workers", "4"])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_output(tmp_path):
    out = tmp_path / "grid.json"
    status, _, _ = run_cli(["phase-diagram", "--mu-grid", "1.0",
                            "--d-grid", "0.5", "--format", "json",
                            "--convention", "variational",
                            "--output", str(out)])
    assert status == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["subcommand"] == "phase-diagram"
    assert payload["meta"]["convention"] == "variational"
    assert payload["meta"]["version"]
    assert payload["rows"][0][3] == "superfluid"


def test_empty_grid_exits_2_without_file(tmp_path):
    out = tmp_path / "never.csv"
    status, _, err = run_cli(["resolution", "--theta-grid", "",
                              "--output", str(out)])
    assert status == 2
    assert not out.exists()
    assert "rotobh: error:" in err


def test_resolution_csv(tmp_path):
    out = tmp_path / "res.csv"
    status, _, _ = run_cli(["resolution", "--theta-grid", "0.6:1.2:0.1",
                            "--gamma", "0.043", "--output", str(out)])
    assert status == 0
    _, cols, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert cols == ("theta", "omega", "a_fit", "delta_max", "epsilon_theta",
                    "epsilon_omega", "mode")
    eps = [r[4] for r in rows]
    # past its hump the exact width improves monotonically with angle
    assert all(b < a for a, b in zip(eps, eps[1:]))
    for r in rows:
        assert r[6] == "exact"
        assert abs(r[1] - r[0] / 0.043) < 1e-9
        assert abs(r[5] - r[4] / 0.043) < 1e-12


def test_resolution_crossover_follows_grid_points():
    status, out, _ = run_cli(["resolution", "--theta-grid", "1.0",
                              "--grid-points", "50", "--format", "json"])
    assert status == 0
    tc = json.loads(out)["meta"]["theta_crossover_fit"]
    # the 50-point fit crosses 1.9e-4 below the 200-point one
    assert abs(sensing.fit_a(tc, 50)[0] * tc - 1.0) < 1e-8
    assert abs(tc - sensing.theta_crossover("fit")) > 1e-4


@pytest.mark.parametrize("command", ["resolution", "fit-delta"])
def test_grid_errors_write_nothing(tmp_path, command):
    out = tmp_path / "never.csv"
    status, stdout, err = run_cli([command, "--theta-grid", "0.5,1.7",
                                   "--output", str(out)])
    assert status == 3 and stdout == "" and not out.exists()
    assert "theta = 1.7 outside" in err
    status, stdout, err = run_cli([command, "--theta-grid", "0.5,0.8",
                                   "--grid-points", "10"])
    assert status == 2 and stdout == ""
    assert "grid_points must be >= 50" in err


def test_resolution_fit_mode_and_meta(tmp_path):
    out = tmp_path / "res.json"
    status, _, _ = run_cli(["resolution", "--theta-grid", "1.0",
                            "--mode", "fit", "--format", "json",
                            "--output", str(out)])
    assert status == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    meta = payload["meta"]
    assert meta["mode"] == "fit"
    assert meta["fit_protocol"]["form"].startswith("sqrt(")
    assert "tolerances" in meta
    assert abs(meta["theta_crossover_exact"] - math.acos(2.0 / 3.0)) < 1e-12
    assert abs(meta["theta_crossover_fit"] - 0.70918) < 1e-4
    row = payload["rows"][0]
    assert row[1] is None  # no gamma given, omega column is null
    assert abs(row[3] - math.exp(-1.0)) < 1e-12


def test_sensitivity_surface():
    status, out, _ = run_cli(["sensitivity", "--theta-grid", "0.5,1.0",
                              "--dtheta-points", "50"])
    assert status == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("theta", "dtheta", "delta")
    assert len(rows) == 100
    assert rows[0] == (0.5, 0.0, 0.0)
    assert abs(rows[-1][1] - 1.0) < 1e-12  # last offset reaches the edge
    # theta * i / (points - 1) rounds past theta at the last step here
    status, out, _ = run_cli(["sensitivity", "--theta-grid", "0.7008",
                              "--dtheta-points", "200"])
    assert status == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 200 and rows[-1][1] == 0.7008


def test_fit_delta_report():
    status, out, _ = run_cli(["fit-delta", "--theta-grid", "1.0"])
    assert status == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("theta", "a_fit", "rms", "delta_max_fit", "max_abs_dev")
    theta, a, rms, dm, dev = rows[0]
    assert abs(a - 2.154801087790805) < 1e-6
    assert rms < 0.02
    assert dm == math.exp(-1.0)
    assert dev < 0.03
    # the deviation scan's last step rounds past theta here
    status, out, _ = run_cli(["fit-delta", "--theta-grid", "0.4995"])
    assert status == 0
    assert len(parse_csv(out)[2]) == 1


def test_fit_delta_peak_uses_its_own_fit():
    status, out, _ = run_cli(["fit-delta", "--theta-grid", "0.5:1.1:0.1",
                              "--grid-points", "100"])
    assert status == 0
    _, _, rows = parse_csv(out)
    for theta, a, _, dm, _ in rows:
        peak = math.exp(-1.0) if a * theta >= 1.0 else float(fit_form(a, theta))
        assert dm == peak


def test_fit_delta_deviation_matches_scalar_scan():
    status, out, _ = run_cli(["fit-delta", "--theta-grid", "0.5:1.1:0.1"])
    assert status == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 7
    for theta, a, _, _, dev in rows:
        want = max(abs(float(fit_form(a, d)) - sensing.delta_exact(theta, d))
                   for d in _dtheta_steps(theta, 401))
        assert dev == want, theta


def test_sensitivity_cells_are_python_floats(tmp_path):
    argv = ["sensitivity", "--theta-grid", "0.5,1.0", "--dtheta-points", "20"]
    status, out, _ = run_cli(argv)
    assert status == 0 and "float64" not in out
    path = tmp_path / "s.json"
    status, _, _ = run_cli(argv + ["--format", "json", "--output", str(path)])
    assert status == 0
    text = path.read_text(encoding="utf-8")
    assert "float64" not in text
    rows = json.loads(text)["rows"]
    assert len(rows) == 40
    assert rows[5][2] == sensing.delta_exact(0.5, 0.5 * 5 / 19)


def test_order_parameter_omega_grid(tmp_path):
    out = tmp_path / "op.csv"
    status, _, _ = run_cli(["order-parameter", "--mu", "1.0",
                            "--t-grid", "0.4", "--omega-grid", "0,10,20",
                            "--mass-amu", "87", "--radius-um", "10",
                            "--sites", "20", "--output", str(out)])
    assert status == 0
    _, cols, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert cols[0] == "t_over_U" and cols[1] == "theta"
    gamma = 0.043037007117245854
    assert abs(rows[1][1] - 10.0 * gamma) < 1e-12
    assert rows[0][4] == "superfluid"


def test_order_parameter_flag_conflicts(tmp_path):
    status, _, _ = run_cli(["order-parameter", "--mu", "1.0",
                            "--t-grid", "0.4"])
    assert status == 2
    status, _, _ = run_cli(["order-parameter", "--mu", "1.0",
                            "--t-grid", "0.4", "--theta-grid", "0.1",
                            "--omega-grid", "1.0"])
    assert status == 2
    # frame flags make no sense with a direct theta grid
    status, _, _ = run_cli(["order-parameter", "--mu", "1.0",
                            "--t-grid", "0.4", "--theta-grid", "0.1",
                            "--mass-amu", "87", "--radius-um", "10",
                            "--sites", "20"])
    assert status == 2
    # partial frame
    status, _, _ = run_cli(["order-parameter", "--mu", "1.0",
                            "--t-grid", "0.4", "--omega-grid", "1.0",
                            "--mass-amu", "87"])
    assert status == 2


def test_costheta_curve_defaults():
    status, out, _ = run_cli(["costheta-curve", "--t-grid", "0.25,0.5"])
    assert status == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("lobe_n", "mu_over_U", "t_over_U", "costheta_c", "status")
    assert [r[0] for r in rows] == [1, 1, 2, 2, 3, 3]
    ok = [r for r in rows if r[4] == "ok"]
    assert all(0.0 < r[3] <= 1.0 for r in ok)
    # lobe 1 tip needs D = 0.343, unreachable at t = 0.25
    assert rows[0][4] == "error:out-of-reach"
    status, _, _ = run_cli(["costheta-curve", "--t-grid", "0.5",
                            "--lobes", "1,2", "--mu-by-lobe", "1.0"])
    assert status == 2


def test_invert_roundtrip_cli():
    measured = delta_change(1.0, 1, 0.9, 0.05)
    status, out, _ = run_cli(["invert", "--delta-measured", repr(measured),
                              "--mu", "1.0", "--theta", "0.9",
                              "--gamma", "0.043"])
    assert status == 0
    _, cols, rows = parse_csv(out)
    row = dict(zip(cols, rows[0]))
    assert abs(row["delta_theta"] - 0.05) < 1e-9
    assert abs(row["delta_omega"] - 0.05 / 0.043) < 1e-7
    assert row["ambiguous"] is False


def test_invert_error_paths():
    status, _, err = run_cli(["invert", "--delta-measured", "10.0",
                              "--mu", "1.0", "--theta", "0.9",
                              "--gamma", "0.043"])
    assert status == 3
    assert "rotobh: error:" in err
    # a NaN reading is out of range, not a number to invert
    status, out, _ = run_cli(["invert", "--delta-measured", "nan",
                              "--mu", "1.0", "--theta", "0.9",
                              "--gamma", "0.043"])
    assert status == 3 and out == ""
    # theta and omega at once
    status, _, _ = run_cli(["invert", "--delta-measured", "0.1",
                            "--mu", "1.0", "--theta", "0.9", "--omega", "2.0",
                            "--gamma", "0.043"])
    assert status == 2
    # no angle at all
    status, _, _ = run_cli(["invert", "--delta-measured", "0.1",
                            "--mu", "1.0", "--gamma", "0.043"])
    assert status == 2
    # frame and gamma together
    status, _, _ = run_cli(["invert", "--delta-measured", "0.1",
                            "--mu", "1.0", "--theta", "0.9",
                            "--gamma", "0.043", "--mass-amu", "87",
                            "--radius-um", "10", "--sites", "20"])
    assert status == 2


def test_oracle_check_report():
    status, out, _ = run_cli(["oracle-check", "--mu", "1.0",
                              "--dthetas", "0.005"])
    assert status == 0
    _, cols, rows = parse_csv(out)
    row = dict(zip(cols, rows[0]))
    assert abs(row["ratio"] - 0.5) < 1e-3
    assert abs(row["D_c_paper"] - 1.0 / 3.0) < 1e-12
    assert abs(row["rel_err"]) < 2e-2
    assert row["psi_star"] < 0.1


@pytest.mark.parametrize("flags", [
    ["--dthetas", "0"],  # delta = 0: kappa_recovered divided by it
    ["--dthetas", "1e-20"],  # cos(theta - dtheta) rounds to cos(theta)
    ["--dthetas", "0.005,0.9"],  # past the default theta = 0.8
    ["--dthetas", "0.005", "--theta", "nan"],
    ["--dthetas", "0.005", "--theta", "0"],
    ["--dthetas", "0.005", "--theta", "1.5707963267948966"],
])
def test_oracle_check_rotation_domain_exits_3(monkeypatch, flags):
    # checked before the first boundary solve
    def no_solve(*args):
        raise AssertionError("boundary solved before the domain check")

    monkeypatch.setattr(cli, "boundary_numeric", no_solve)
    status, out, err = run_cli(["oracle-check", "--mu", "1.0"] + flags)
    assert status == 3 and out == ""
    assert err.startswith("rotobh: error:") and "Traceback" not in err


def test_lobe_is_derived_not_a_flag():
    # the lobe is lobe_index(mu); any other lobe is outside chi's domain
    for argv in (["invert", "--delta-measured", "0.05", "--mu", "1.0",
                  "--theta", "0.9", "--gamma", "0.043"],
                 ["oracle-check", "--mu", "1.0", "--dthetas", "0.005"]):
        status, out, err = run_cli(argv + ["--lobe", "1"])
        assert status == 2 and out == ""
        assert "--lobe" in err


def test_oracle_check_unconverged_exits_4(monkeypatch):
    monkeypatch.setattr(oracle, "minimize_order_parameter",
                        lambda problem: oracle.OracleResult(0.5, -1.0, 0.4, False))
    status, out, err = run_cli(["oracle-check", "--mu", "1.0",
                                "--dthetas", "0.005"])
    assert status == 4
    assert out == ""
    assert "did not converge" in err


def test_resolution_crossover_only_in_json(monkeypatch):
    calls = []
    real = sensing.theta_crossover

    def counted(mode="exact", grid_points=sensing.FIT_GRID_POINTS):
        calls.append(mode)
        return real(mode, grid_points)
    monkeypatch.setattr(sensing, "theta_crossover", counted)
    argv = ["resolution", "--theta-grid", "0.8,1.0"]
    status, _, _ = run_cli(argv)
    assert status == 0 and calls == []
    status, json_out, _ = run_cli(argv + ["--format", "json"])
    assert status == 0 and calls == ["exact", "fit"]
    meta = json.loads(json_out)["meta"]
    assert meta["theta_crossover_exact"] == real("exact")
    assert meta["theta_crossover_fit"] == real("fit")


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "res.cfg"
    cfg.write_text("theta_grid = 0.8,1.0\nmode = fit\ngamma = 0.05\n",
                   encoding="utf-8")
    out1 = tmp_path / "a.csv"
    status, _, _ = run_cli(["resolution", "--config", str(cfg),
                            "--output", str(out1)])
    assert status == 0
    _, _, rows = parse_csv(out1.read_text(encoding="utf-8"))
    assert [r[0] for r in rows] == [0.8, 1.0]
    assert rows[0][6] == "fit"
    # explicit flag beats the file
    out2 = tmp_path / "b.csv"
    status, _, _ = run_cli(["resolution", "--config", str(cfg),
                            "--mode", "exact", "--output", str(out2)])
    assert status == 0
    _, _, rows2 = parse_csv(out2.read_text(encoding="utf-8"))
    assert rows2[0][6] == "exact"
    # unknown keys are config errors, not silent typos
    bad = tmp_path / "bad.cfg"
    bad.write_text("thta_grid = 0.8\n", encoding="utf-8")
    status, _, _ = run_cli(["resolution", "--theta-grid", "0.8",
                            "--config", str(bad)])
    assert status == 2
    nested = tmp_path / "nested.cfg"
    nested.write_text("config = other.cfg\n", encoding="utf-8")
    status, _, _ = run_cli(["resolution", "--theta-grid", "0.8",
                            "--config", str(nested)])
    assert status == 2


def test_config_boolean_flag(tmp_path):
    cfg = tmp_path / "lit.cfg"
    cfg.write_text("literal_exponent = true\n", encoding="utf-8")
    status, out, _ = run_cli(["resolution", "--theta-grid", "1.0",
                              "--mode", "fit", "--config", str(cfg)])
    assert status == 0
    _, cols, rows = parse_csv(out)
    a_fit = rows[0][2]
    eps_plain = 0.024970232294427394
    assert abs(rows[0][4] - eps_plain / a_fit) < 1e-9


def test_version_and_usage_errors():
    status, out, _ = run_cli(["--version"])
    assert status == 0
    assert out.strip()
    status, _, _ = run_cli(["no-such-command"])
    assert status == 2
    status, _, _ = run_cli([])
    assert status == 2
    status, _, _ = run_cli(["resolution", "--theta-grid", "1.0",
                            "--workers", "0"])
    assert status == 2


def readme_commands(out_dir):
    """argv of every command in the README's CLI block, writing to out_dir."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("rotobh ")]
    for i, argv in enumerate(commands):
        if "--output" in argv:
            j = argv.index("--output")
            del argv[j:j + 2]
        argv += ["--output", str(out_dir / ("example%d.csv" % i))]
    return commands


def test_readme_cli_examples(tmp_path):
    """Every command in the README's CLI block runs and exits 0."""
    commands = readme_commands(tmp_path)
    assert len(commands) >= 8
    for argv in commands:
        status, _, err = run_cli(argv)
        assert status == 0, (argv, err)
        assert Path(argv[-1]).stat().st_size > 0


def run_fresh(*args):
    """A new interpreter on this checkout's src, given args after python."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], env=env, timeout=120,
                          capture_output=True, text=True)


# Runs each argv of the JSON list in argv[1] through cli.main and prints,
# as JSON, whether scipy is loaded after each step.
SCIPY_PROBE = """
import json, sys
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
steps = []
import rotobh
steps.append(["import rotobh", 0, scipy_loaded()])
import rotobh.cli
rotobh.cli.build_parser()
steps.append(["build_parser", 0, scipy_loaded()])
for argv in json.loads(sys.argv[1]):
    steps.append([argv[0], rotobh.cli.main(argv), scipy_loaded()])
print(json.dumps(steps))
"""


def test_scipy_loads_only_for_the_oracle(tmp_path):
    """Only the oracle's eigensolves import scipy; the rest of a run never
    pays for loading it."""
    commands = readme_commands(tmp_path)
    oracle_runs = [argv for argv in commands if argv[0] == "oracle-check"]
    others = [argv for argv in commands if argv[0] != "oracle-check"]
    assert len(oracle_runs) == 1
    assert {argv[0] for argv in others} >= {
        "phase-diagram", "order-parameter", "costheta-curve", "sensitivity",
        "resolution", "fit-delta", "invert"}
    proc = run_fresh("-c", SCIPY_PROBE, json.dumps(others))
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert len(steps) == 2 + len(others)
    assert all(step[1:] == [0, False] for step in steps), steps
    proc = run_fresh("-c", SCIPY_PROBE, json.dumps(oracle_runs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["import rotobh", 0, False],
                                       ["build_parser", 0, False],
                                       ["oracle-check", 0, True]]


def test_python_m_rotobh():
    proc = run_fresh("-m", "rotobh", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__
    proc = run_fresh("-m", "rotobh", "resolution", "--theta-grid", "1.0",
                     "--no-such-flag")
    assert proc.returncode == 2
    assert "--no-such-flag" in proc.stderr
