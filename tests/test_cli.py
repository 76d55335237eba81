"""End-to-end command-line behavior: config layering, files, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tailsurv.analysis import fit_power_law
from tailsurv.cli import load_config, main
from tailsurv.emit import read_table
from tailsurv.errors import ConfigError
from tailsurv.survival import SurvivalSeries


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TAILSURV_OUTDIR", raising=False)
    return tmp_path


# ------------------------------------------------------------------ #
# configuration layering                                             #
# ------------------------------------------------------------------ #

def test_show_config_defaults(workdir, capsys):
    assert main(["show-config"]) == 0
    out = capsys.readouterr().out
    assert "beta = 0.3" in out
    assert "fit_lo = 400.0" in out
    assert "arc_radii = 50,100,200,400" in out


def test_cli_override_beats_config_file(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("# comment line\n\nbeta = 0.7   # trailing comment\nvb = 1.6\n")
    assert main(["show-config", "--config", str(cfg), "--beta", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "beta = 1.0" in out
    assert "vb = 1.6" in out


@pytest.mark.parametrize("argv", (["verify", "--t_min", "5"], ["sweep", "--n_a", "2"],
                                  ["sweep", "--beta", "-0.6"]))
def test_flags_a_command_does_not_read_are_rejected(workdir, capsys, argv):
    # verify has no time grid, and the sweep always uses mode 1 and sets beta
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_parsing(workdir):
    good = workdir / "good.cfg"
    good.write_text("t_per_decade = 40\nmethods = exact,laplace\n")
    assert load_config(good) == {"t_per_decade": 40, "methods": "exact,laplace"}


@pytest.mark.parametrize("text", ("mystery = 1\n", "t_per_decade = abc\n",
                                  "just a line\n"))
def test_bad_config_file_exits_two(workdir, capsys, text):
    cfg = workdir / "bad.cfg"
    cfg.write_text(text)
    assert main(["show-config", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err
    assert "error:" in err


# ------------------------------------------------------------------ #
# density emission                                                   #
# ------------------------------------------------------------------ #

def test_density_emission(workdir, capsys):
    assert main(["density", "--e_points", "40", "--e_max", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "integral over continuum: 1.000000000" in out
    header, data = read_table(workdir / "density.csv")
    assert header == ["E", "omega"]
    assert data["E"].size == 40
    assert np.all(data["omega"] >= 0.0)


def test_density_writes_meta(workdir, capsys):
    assert main(["density", "--e_points", "40", "--e_min", "0.01", "--e_max", "4.0"]) == 0
    capsys.readouterr()
    meta = json.loads((workdir / "density.meta.json").read_text())
    assert meta["points"] == 40
    assert (meta["e_min"], meta["e_max"]) == pytest.approx((0.01, 4.0), rel=1.0e-15)
    assert meta["mass_error"] == abs(meta["spectral_mass"] - 1.0) <= 1.0e-10


def test_outdir_relocates_relative_paths(workdir, monkeypatch, capsys):
    outdir = workdir / "elsewhere"
    monkeypatch.setenv("TAILSURV_OUTDIR", str(outdir))
    assert main(["density", "--e_points", "30", "--out", "den.csv"]) == 0
    capsys.readouterr()
    assert (outdir / "den.csv").exists()
    absolute = workdir / "abs.csv"
    assert main(["density", "--e_points", "30", "--out", str(absolute)]) == 0
    assert absolute.exists()


# ------------------------------------------------------------------ #
# survival emission                                                  #
# ------------------------------------------------------------------ #

def test_survive_emits_all_methods(workdir, capsys):
    assert main(["survive", "--t_min", "400", "--t_max", "800",
                 "--t_per_decade", "40",
                 "--methods", "laplace,one-term,series"]) == 0
    captured = capsys.readouterr()
    assert "methods exact,laplace,one-term,series" in captured.out
    assert "warning" not in captured.err  # grid starts past the pole region
    header, data = read_table(workdir / "survival.csv")
    assert header == ["t", "P_exact", "P_laplace", "P_one_term", "P_series_4"]
    assert (workdir / "survival.model.json").exists()
    # the pole-free route agrees in this window; the one-term model is
    # systematically off for beta = 0.3 but in the right decade
    assert np.max(np.abs(data["P_laplace"] / data["P_exact"] - 1.0)) < 5.0e-2


def test_survive_writes_exact_meta(workdir, capsys):
    assert main(["survive", "--t_min", "400", "--t_max", "800",
                 "--t_per_decade", "40", "--methods", "one-term"]) == 0
    _, data = read_table(workdir / "survival.csv")
    meta = json.loads((workdir / "survival.meta.json").read_text())
    assert {"e_max", "panels", "density_evals", "error_estimate", "error_parts",
            "table_s", "amplitude_s", "write_s"} <= meta.keys()
    assert 0.0 < meta["write_s"] < 60.0
    assert len(meta["error_estimate"]) == data["t"].size
    assert max(meta["error_estimate"]) == meta["max_error_estimate"]
    assert set(meta["error_parts"]) == {"interpolation", "truncation", "sub_threshold"}
    assert meta["small_phase_pairs"] + meta["large_phase_pairs"] == data["t"].size * meta["panels"]


def test_survive_warns_below_pole_crossover(workdir, capsys):
    assert main(["survive", "--t_min", "5", "--t_max", "20",
                 "--t_per_decade", "10", "--methods", "laplace"]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "t ~ 200" in err


def test_survive_from_t_1_1_exits_zero(workdir, capsys):
    # e_max = (3 r_a / 1.1)^2 = 66.9 is off any round grid edge
    assert main(["survive", "--t_min", "1.1", "--t_max", "100"]) == 0
    assert "exact error estimate" in capsys.readouterr().out


def test_survive_rejects_unknown_method(workdir, capsys):
    assert main(["survive", "--methods", "magic"]) == 2
    assert "error-class: ConfigError" in capsys.readouterr().err


def test_survive_rejects_bad_time_grid(workdir, capsys):
    assert main(["survive", "--t_min", "0"]) == 2
    assert "error-class: ConfigError" in capsys.readouterr().err


# ------------------------------------------------------------------ #
# fit round trip                                                     #
# ------------------------------------------------------------------ #

def test_fit_reproduces_in_memory_result_bit_exactly(workdir, capsys):
    assert main(["survive", "--t_min", "400", "--t_max", "800",
                 "--t_per_decade", "40"]) == 0
    capsys.readouterr()
    assert main(["fit", "survival.csv"]) == 0
    out = capsys.readouterr().out
    printed = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            printed[key.strip()] = float(val)
    _, data = read_table(workdir / "survival.csv")
    series = SurvivalSeries(times=data["t"], probability=data["P_exact"],
                            amplitudes=None, method="refit")
    fit = fit_power_law(series, 400.0, 800.0)
    assert printed["mu_f"] == fit.mu_f
    assert printed["prefactor"] == fit.prefactor
    assert printed["rms_residual_lnP"] == fit.rms_residual
    # and the exponent is the one the tail law predicts for beta = 0.3
    assert abs(fit.mu_f - 3.6) < 0.05


def test_fit_column_selection_errors(workdir, capsys):
    (workdir / "no_t.csv").write_text("x,y\n1,2\n")
    assert main(["fit", "no_t.csv"]) == 2
    capsys.readouterr()
    (workdir / "only_t.csv").write_text("t\n1\n")
    assert main(["fit", "only_t.csv"]) == 2
    capsys.readouterr()
    (workdir / "short.csv").write_text("t,P\n500,1e-9\n")
    assert main(["fit", "short.csv", "--column", "missing"]) == 2


# ------------------------------------------------------------------ #
# sweep                                                              #
# ------------------------------------------------------------------ #

def test_sweep_single_row(workdir, capsys):
    assert main(["sweep", "--beta_start", "0.3", "--beta_stop", "0.3",
                 "--fit_samples", "12"]) == 0
    capsys.readouterr()
    header, data = read_table(workdir / "sweep.csv")
    assert header == ["beta", "mu_f", "prefactor", "mu_predicted", "residual"]
    assert data["beta"].tolist() == [0.3]
    assert data["mu_predicted"][0] == pytest.approx(3.6, rel=1.0e-14)
    assert data["mu_f"][0] == pytest.approx(3.6, abs=0.05)


def test_sweep_ignores_config_beta(workdir, capsys):
    # beta = -0.6 would fail validation, but the sweep sets beta itself
    argv = ["sweep", "--beta_start", "0.3", "--beta_stop", "0.3", "--fit_samples", "12"]
    assert main(argv + ["--out", "plain.csv"]) == 0
    (workdir / "beta.cfg").write_text("beta = -0.6\n")
    assert main(argv + ["--config", "beta.cfg", "--out", "beta.csv"]) == 0
    capsys.readouterr()
    assert (workdir / "beta.csv").read_bytes() == (workdir / "plain.csv").read_bytes()


def test_sweep_default_grid(workdir, capsys):
    # beta_start, beta_stop, beta_step default to -0.45, 1.0, 0.05
    assert main(["sweep"]) == 0
    assert "sweep: 30 tail strengths" in capsys.readouterr().out
    _, data = read_table(workdir / "sweep.csv")
    assert data["beta"][0] == -0.45 and data["beta"][-1] == 1.0
    assert len(data["beta"]) == 30
    assert np.allclose(np.diff(data["beta"]), 0.05, atol=1.0e-12)


def test_sweep_rejects_bad_grid(workdir, capsys):
    assert main(["sweep", "--beta_step", "0"]) == 2


# ------------------------------------------------------------------ #
# arc check                                                          #
# ------------------------------------------------------------------ #

def test_arc_check_passes_on_defaults(workdir, capsys):
    assert main(["arc-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("decreasing") >= 3
    assert "NOT DECREASING" not in out


def test_arc_check_fails_on_reversed_radii(workdir, capsys):
    assert main(["arc-check", "--arc_radii", "400,50"]) == 3
    captured = capsys.readouterr()
    assert "NOT DECREASING" in captured.out
    assert "error-class: ToleranceError" in captured.err


def test_arc_check_domain_error_exit_code(workdir, capsys):
    # radius 2 puts |k r_d| below the validity cutoff of the
    # Hankel-product series
    assert main(["arc-check", "--arc_radii", "2,50"]) == 4
    assert "error-class: DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["arc-check", "--arc_angles", "foo"],
    ["arc-check", "--arc_radii", "50"],
    ["arc-check", "--arc_radii", "50,oops"],
))
def test_arc_check_config_errors(workdir, capsys, argv):
    assert main(argv) == 2


def test_angle_strings_parse():
    from tailsurv.cli import _simple_ratio
    import math
    assert _simple_ratio("-pi/16") == pytest.approx(-math.pi / 16.0)
    assert _simple_ratio("0.5") == 0.5
    assert _simple_ratio("2pi") == pytest.approx(2.0 * math.pi)
    with pytest.raises(ValueError):
        _simple_ratio("pie")


# ------------------------------------------------------------------ #
# verification command                                               #
# ------------------------------------------------------------------ #

def test_verify_command(workdir, capsys):
    from tailsurv.oracle import _BRUTE_WORKERS

    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3
    assert "FAIL" not in out
    cost = out.splitlines()[-1]
    assert cost.startswith("cost: rk4_steps ")
    assert re.search(r"\bdensity_calls [1-9]\d*,", cost)
    assert re.search(rf"\bworkers {_BRUTE_WORKERS},", cost)


def test_verify_is_listed_in_help(workdir, capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert any(line.split()[:2] == ["verify", "cross-check"] for line in out.splitlines())


def test_cli_import_loads_no_oracle():
    code = "import sys, tailsurv.cli\nprint('tailsurv.oracle' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_potential_validation_propagates(workdir, capsys):
    assert main(["density", "--v0", "5.0"]) == 2
    assert "error-class: ConfigError" in capsys.readouterr().err
