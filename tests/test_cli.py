import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotobh import __version__, cli, oracle, sensing
from rotobh.cli import load_config, main, parse_grid
from rotobh.errors import (MAX_COUNT, ConfigError, FitQualityWarning,
                           TruncationWarning)
from rotobh.io import parse_csv
from rotobh.landau import kappa
from rotobh.sensing import delta_exact, dtheta_steps, fit_form

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
    # 0:1e308:1e-300 overflows the point count to inf; 0:1:1e-12 is finite
    # but past MAX_COUNT, and is refused before anything is allocated
    for bad in ("", "abc", "1:2", "1:2:3:4", "2:1:0.5", "1:2:-0.1",
                "1:2:0", "1,two,3", "0:1e308:1e-300", "0:1:1e-12", "nan",
                "inf", "-inf",
                "1,nan,3", "0.1,inf", "nan:1:0.1", "0:inf:0.1", "0:1:nan"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


HUGE_RING = ["--mass-amu", "0.5", "--radius-um", "1e300", "--sites", "20"]
TINY_RING = ["--mass-amu", "0.5", "--radius-um", "1e-200", "--sites", "20"]


def test_bad_requests_exit_2_without_output(tmp_path):
    out = tmp_path / "never.csv"
    for argv in (["resolution", "--theta-grid", "0:1e308:1e-300"],
                 ["costheta-curve", "--t-grid", "0.5", "--lobes", "1.5"],
                 ["phase-diagram", "--psi-method", "variational",
                  "--n-max", "3", "--mu-grid", "1.0", "--d-grid", "0.05,0.5"],
                 ["resolution", "--theta-grid", "1.0", "--gamma=-1"],
                 ["resolution", "--theta-grid", "1.0", "--gamma", "nan"],
                 ["sensitivity", "--theta-grid", "1.0",
                  "--dtheta-points", "1"],
                 # a truncation above oracle.MAX_N_MAX, given or defaulted
                 ["oracle-check", "--mu", "1.0", "--n-max", "100000000000"],
                 ["phase-diagram", "--psi-method", "variational",
                  "--mu-grid=1e300", "--d-grid=3.0"],
                 # a frame whose gamma overflows or underflows
                 ["order-parameter", "--mu", "1", "--t-grid", "0.4",
                  "--omega-grid", "0:1:0.5"] + HUGE_RING,
                 ["resolution", "--theta-grid", "0.5"] + HUGE_RING,
                 ["invert", "--delta-measured", "0.01", "--mu", "1",
                  "--omega", "1"] + HUGE_RING,
                 ["resolution", "--theta-grid", "0.5"] + TINY_RING,
                 ["order-parameter", "--mu", "1", "--t-grid", "0.4",
                  "--omega-grid", "0:1:0.5"] + TINY_RING,
                 # a site count beyond the float range
                 ["resolution", "--theta-grid", "0.5", "--mass-amu", "87",
                  "--radius-um", "10", "--sites", "1" + "0" * 400],
                 # non-finite values in a grid of any form, or the loop's mu
                 ["resolution", "--theta-grid", "nan"],
                 ["costheta-curve", "--t-grid", "0.3", "--lobes", "1",
                  "--mu-by-lobe", "nan"],
                 ["order-parameter", "--mu", "nan", "--t-grid", "0.3",
                  "--theta-grid", "0.1"]):
        status, _, err = run_cli(argv + ["--output", str(out)])
        assert status == 2, argv
        assert not out.exists()
        assert "rotobh: error:" in err


def test_unwritable_output_exits_2():
    target = "/nonexistent-rotobh-dir/x.csv"
    for argv in (["invert", "--delta-measured", "0.05", "--mu", "1.0",
                  "--theta", "0.9", "--gamma", "0.043"],
                 ["resolution", "--theta-grid", "1.0"]):
        status, out, err = run_cli(argv + ["--output", target])
        assert status == 2, err
        assert out == ""
        assert "rotobh: error: cannot write output %s" % target in err


def test_huge_hopping_psi_is_a_sentinel():
    # 16 D^4 B overflows past D ~ 1e77: the cell is an error sentinel with
    # psi nan, never inf or a plausible 0.0; finite cells are untouched
    status, out, err = run_cli(["phase-diagram", "--mu-grid", "1.0",
                                "--d-grid", "0.5,1e100"])
    assert status == 0, err
    _, _, rows = parse_csv(out)
    assert rows[0][3] == "superfluid" and rows[0][4] > 0.0
    assert rows[1][3] == "error:domain" and math.isnan(rows[1][4])
    status, out, err = run_cli(["order-parameter", "--mu", "1.0",
                                "--t-grid", "0.5,1e100", "--theta-grid",
                                "0.1", "--format", "json"])
    assert status == 0, err
    rows = json.loads(out)["rows"]
    assert rows[0][4] == "superfluid" and rows[0][5] > 0.0
    assert rows[1][4] == "error:domain" and rows[1][5] is None


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


@pytest.mark.parametrize("grid_points", [50, 200, 333])
def test_resolution_crossover_follows_grid_points(grid_points):
    status, out, _ = run_cli(["resolution", "--theta-grid", "1.0",
                              "--grid-points", str(grid_points),
                              "--format", "json"])
    assert status == 0
    tc = json.loads(out)["meta"]["theta_crossover_fit"]
    assert tc == sensing.theta_crossover("fit", grid_points)
    # the root belongs to this grid's fit, which meets a theta = 1 there to
    # its golden search's own error (under 2e-9)
    assert abs(sensing.fit_a(tc, grid_points)[0] * tc - 1.0) < 1e-8


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
                   for d in dtheta_steps(theta, 401))
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
    measured = kappa(1.0, 1) * delta_exact(0.9, 0.05)
    status, out, _ = run_cli(["invert", "--delta-measured", repr(measured),
                              "--mu", "1.0", "--theta", "0.9",
                              "--gamma", "0.043"])
    assert status == 0
    _, cols, rows = parse_csv(out)
    row = dict(zip(cols, rows[0]))
    assert abs(row["delta_theta"] - 0.05) < 1e-9
    assert abs(row["delta_omega"] - 0.05 / 0.043) < 1e-7
    assert row["ambiguous"] is False
    # --omega with the frame flags is the one lab-units path to one angle:
    # theta = gamma * omega, and the row is the --theta run's at that angle
    status, out, err = run_cli(["invert", "--delta-measured", "0.05",
                                "--mu", "1.0", "--omega", "20",
                                "--mass-amu", "87", "--radius-um", "10",
                                "--sites", "20"])
    assert status == 0, err
    _, cols, rows = parse_csv(out)
    row = dict(zip(cols, rows[0]))
    assert row["theta"] == row["gamma"] * 20.0
    status, direct, _ = run_cli(["invert", "--delta-measured", "0.05",
                                 "--mu", "1.0", "--theta", repr(row["theta"]),
                                 "--gamma", repr(row["gamma"])])
    assert status == 0 and parse_csv(direct)[2] == rows


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
    # an angle but no gamma
    status, out, err = run_cli(["invert", "--delta-measured", "0.1",
                                "--mu", "1.0", "--theta", "0.9"])
    assert status == 2 and out == ""
    assert "needs --gamma or the frame flags" in err
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

    monkeypatch.setattr(cli, "boundary_and_psis", no_solve)
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
    # every cell of the batched call, the boundary's guards first
    unconverged = oracle.OracleResult(0.5, -1.0, 0.4, False)
    monkeypatch.setattr(oracle, "minimize_order_parameter",
                        lambda problems: oracle.OracleResults(
                            [unconverged] * len(problems)))
    status, out, err = run_cli(["oracle-check", "--mu", "1.0",
                                "--dthetas", "0.005"])
    assert status == 4
    assert out == ""
    assert "did not converge" in err


def test_oracle_check_failing_boundary_after_its_cells(monkeypatch):
    # a mu's two boundary guards and its cells are minimized in one call,
    # so when the guards find no second-order boundary (here both sit at
    # D* itself, where psi* = 0), the cells have been solved and have
    # warned, in cell order, before the error; stdout stays empty
    monkeypatch.setattr(oracle, "GUARD_STEP", 0.0)
    argv = ["oracle-check", "--mu", "1.0", "--theta", "0.8",
            "--dthetas", "0.5,0.6", "--n-max", "4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, out, err = run_cli(argv)
    assert status == 4 and out == ""
    assert err.startswith("rotobh: error: boundary at mu = 1.0")
    assert "is not second order" in err
    assert [str(w.message)[:36] for w in caught
            if issubclass(w.category, TruncationWarning)] \
        == ["ground state carries weight 7.74e-06",
            "ground state carries weight 1.02e-05"]
    monkeypatch.setattr(oracle, "GUARD_STEP", 1e-3)  # the cells alone pass
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        status, out, _ = run_cli(argv)
    assert status == 0 and len(parse_csv(out)[2]) == 2


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


@pytest.mark.parametrize("flags", [
    # argparse takes an abbreviation, and keeps the last of two --config
    ["--conf", "fit.cfg"],
    ["--co", "fit.cfg"],
    ["--conf", "missing.cfg"],
    ["--config", "fit.cfg", "--config", "missing.cfg"],
])
def test_config_is_read_or_refused(tmp_path, monkeypatch, flags):
    """A --config path that is not the one read is an error, not a file
    left unread."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fit.cfg").write_text("mode = fit\n", encoding="utf-8")
    status, out, err = run_cli(["resolution", "--theta-grid", "0.9"] + flags)
    assert status == 2 and out == ""
    assert err == ("rotobh: error: --config %s was not read: give --config "
                   "once, spelled in full\n" % flags[-1]), err
    # spelled in full and given once, the same file is read
    status, out, _ = run_cli(["resolution", "--theta-grid", "0.9",
                              "--config", "fit.cfg"])
    assert status == 0 and parse_csv(out)[2][0][6] == "fit"


def config_file_form(argv, path):
    """argv with every flag but --output moved into the config file path."""
    sub = cli.build_parser(argv[0])
    keep, lines, i = [argv[0]], [], 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        i += 1
        boolean = sub._option_string_actions[flag].nargs == 0
        if not (eq or boolean):
            value, i = argv[i], i + 1
        if flag == "--output":
            keep += [flag, value]
        else:
            lines.append("%s = %s" % (flag[2:], "true" if boolean else value))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return keep + ["--config", str(path)]


def test_readme_examples_from_config_files(tmp_path):
    """A README example writes the same bytes with its flags in a config
    file, a grid that opens with a minus sign included."""
    commands = readme_commands(tmp_path)
    assert any(token.startswith("--mu-grid=-") for argv in commands
               for token in argv)
    for i, argv in enumerate(commands):
        status, _, err = run_cli(argv)
        assert status == 0, (argv, err)
        direct = Path(argv[-1]).read_bytes()
        cfg_argv = config_file_form(argv, tmp_path / ("example%d.cfg" % i))
        status, _, err = run_cli(cfg_argv)
        assert status == 0, (cfg_argv, err)
        assert Path(argv[-1]).read_bytes() == direct, argv


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
    # the --config=PATH spelling reads the same file
    assert run_cli(["resolution", "--theta-grid", "1.0", "--mode", "fit",
                    "--config=%s" % cfg]) == (0, out, "")
    # a boolean key takes true/false (or 1/0, yes/no) only
    cfg.write_text("literal_exponent = maybe\n", encoding="utf-8")
    status, out, err = run_cli(["resolution", "--theta-grid", "1.0",
                                "--mode", "fit", "--config", str(cfg)])
    assert status == 2 and out == ""
    assert "boolean config key 'literal_exponent'" in err


def test_version_and_usage_errors(tmp_path):
    status, out, _ = run_cli(["--version"])
    assert status == 0
    assert out.strip()
    status, out, _ = run_cli(["--help"])
    assert status == 0
    assert out == cli.build_parser().format_help()
    status, _, _ = run_cli(["no-such-command"])
    assert status == 2
    status, _, _ = run_cli([])
    assert status == 2
    # a config file given before the subcommand is not read
    cfg = tmp_path / "pd.cfg"
    cfg.write_text("mu_grid = 1.0\nd_grid = 0.1\n", encoding="utf-8")
    status, out, err = run_cli(["--config", str(cfg), "phase-diagram"])
    assert status == 2 and out == ""
    assert err.startswith("usage: rotobh [-h]")
    status, _, _ = run_cli(["resolution", "--theta-grid", "1.0",
                            "--workers", "0"])
    assert status == 2


def test_top_level_subparsers_hold_no_flags(monkeypatch):
    """Only a subcommand's own parser holds its flags: the top-level
    parser lists the subcommands, each with -h alone."""
    (subs,) = [a.choices for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert list(subs) == list(cli._SUBCOMMANDS) and len(subs) == 8
    for sub in subs.values():
        assert [a.option_strings for a in sub._actions] == [["-h", "--help"]]
    # "--" does not get past the top-level parser to a flagless subparser:
    # argparse either takes "--" as the command, or strips it, and then the
    # subcommand's own parser reports the flags it needs
    status, out, err = run_cli(["--", "resolution"])
    assert status == 2 and out == ""
    needs = parse_failure(cli.build_parser("resolution"), [])[1]
    assert "invalid choice: '--'" in err or err == needs, err
    # the second branch, whatever this Python's argparse does with "--"
    build = cli.build_parser

    def stripping(name=None):
        parser = build(name)
        if name is None:
            parse = parser.parse_args
            parser.parse_args = lambda argv: parse(
                [a for a in argv if a != "--"])
        return parser

    monkeypatch.setattr(cli, "build_parser", stripping)
    assert run_cli(["--", "resolution"]) == (2, "", needs)


def parse_failure(parser, argv):
    """(exit status, stderr) of an argparse parse that must fail."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, err.getvalue()


def test_subcommand_diagnostics(tmp_path):
    """Help, missing-flag and unknown-flag errors are those of the
    subcommand's own parser."""
    for name in cli._SUBCOMMANDS:
        sub = cli.build_parser(name)
        assert sub.prog == "rotobh " + name
        status, out, err = run_cli([name, "--help"])
        assert (status, out, err) == (0, sub.format_help(), ""), name
        # every subcommand has a required flag
        status, out, err = run_cli([name])
        assert status == 2 and out == ""
        assert (status, err) == parse_failure(sub, []), name
    for argv in readme_commands(tmp_path):
        status, out, err = run_cli(argv + ["--no-such-flag"])
        assert status == 2 and out == ""
        assert not Path(argv[-1]).exists()
        name = argv[0]
        assert err == (cli.build_parser(name).format_usage()
                       + "rotobh %s: error: unrecognized arguments: "
                         "--no-such-flag\n" % name), argv


CAP = str(MAX_COUNT)
OVER = str(MAX_COUNT + 1)


@pytest.mark.parametrize("argv", [
    # a finite range whose expansion would hold about 1e12 floats
    ["resolution", "--theta-grid", "0:1:1e-12"],
    ["phase-diagram", "--mu-grid", "1.0", "--d-grid", "0:1:1e-12"],
    ["order-parameter", "--mu", "1", "--t-grid", "0.4",
     "--theta-grid", "0:1:1e-12"],
    # per-theta counts that would size an allocation
    ["sensitivity", "--theta-grid", "0.5", "--dtheta-points", str(10 ** 12)],
    ["sensitivity", "--theta-grid", "0.5", "--dtheta-points", OVER],
    ["resolution", "--theta-grid", "0.5", "--grid-points", str(10 ** 12)],
    ["fit-delta", "--theta-grid", "0.5", "--grid-points", OVER],
    # each grid within the cap, the table or the fit beyond it
    ["sensitivity", "--theta-grid", "0.5,1.0", "--dtheta-points", CAP],
    ["resolution", "--theta-grid", "0.5,1.0", "--grid-points", CAP],
    ["fit-delta", "--theta-grid", "0.5,1.0", "--grid-points", CAP],
    ["phase-diagram", "--mu-grid", "0:1:1e-3", "--d-grid", "0:1:1e-3"],
    ["order-parameter", "--mu", "1", "--t-grid", "0:1:1e-3",
     "--theta-grid", "0:1:1e-3"],
    ["costheta-curve", "--t-grid", "0:1:1e-3", "--lobes", "1:1001:1"],
    ["oracle-check", "--mu", "0:1:1e-3", "--dthetas", "0:1:1e-3"],
])
def test_counts_above_the_cap_exit_2(tmp_path, argv):
    out = tmp_path / "never.csv"
    status, stdout, err = run_cli(argv + ["--output", str(out)])
    assert status == 2 and stdout == "" and not out.exists(), argv
    assert err.startswith("rotobh: error:") and "Traceback" not in err
    assert "must be at most %d" % MAX_COUNT in err, err


def test_grid_of_max_count_points_expands():
    # the cap is inclusive, and a range's count is checked as a float
    assert len(parse_grid("1:%d:1" % MAX_COUNT)) == MAX_COUNT
    with pytest.raises(ConfigError, match="must be at most"):
        parse_grid("1:%d:1" % (MAX_COUNT + 1))


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


# Every value drawn for a float flag: signed zeros, subnormals, the edges of
# the double range, the non-finite values and a few plain numbers.
FLOAT_DRAWS = ("0", "-0.0", "1e-320", "-1e-320", "1e-300", "-1e-300",
               "1e300", "-1e300", "1e308", "-1e308", "nan", "inf", "-inf",
               "0.5", "2", "-1")
# Each subcommand's float flags, in each of its rotation inputs, with the
# other flags fixed.  The oracle's truncation stays at its lobe + 8
# default, which is capped, so no draw builds a large scan.
FLOAT_FLAG_FORMS = (
    ("phase-diagram", ("--mu-grid", "--d-grid"), ()),
    ("phase-diagram", ("--mu-grid", "--d-grid"),
     ("--psi-method", "variational")),
    ("order-parameter", ("--mu", "--t-grid", "--theta-grid"),
     ("--psi-method", "variational")),
    ("order-parameter", ("--mu", "--t-grid", "--omega-grid", "--mass-amu",
                         "--radius-um"), ("--sites", "20")),
    ("order-parameter", ("--mu", "--t-grid", "--omega-grid", "--gamma"), ()),
    ("costheta-curve", ("--t-grid", "--mu-by-lobe"), ("--lobes", "1")),
    ("sensitivity", ("--theta-grid",), ("--dtheta-points", "5")),
    ("resolution", ("--theta-grid", "--gamma"), ("--mode", "fit")),
    ("resolution", ("--theta-grid", "--mass-amu", "--radius-um"),
     ("--sites", "20")),
    ("fit-delta", ("--theta-grid",), ()),
    ("invert", ("--delta-measured", "--mu", "--theta", "--gamma"), ()),
    ("invert", ("--delta-measured", "--mu", "--omega", "--mass-amu",
                "--radius-um"), ("--sites", "20")),
    ("oracle-check", ("--mu", "--theta", "--dthetas"), ()),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_float_flag_value_escapes_as_a_traceback(data):
    # whatever a float flag holds, main() returns an exit status of its
    # own: a result, or an error reported on stderr (a fit at an extreme
    # theta may also warn, which is not at issue here)
    command, flags, fixed = data.draw(st.sampled_from(FLOAT_FLAG_FORMS))
    argv = [command, *fixed] + ["%s=%s" % (flag, data.draw(
        st.sampled_from(FLOAT_DRAWS))) for flag in flags]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitQualityWarning)
        status, _, err = run_cli(argv)
    assert status in (0, 2, 3, 4), (argv, err)
    assert status == 0 or err.startswith("rotobh: error:"), (argv, err)
