"""End-to-end command-line behavior: config layering, files, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import tailsurv.cli
from tailsurv.analysis import fit_power_law
from tailsurv.cli import load_config, main
from tailsurv.emit import read_table
from tailsurv.errors import ConfigError
from tailsurv.survival import SurvivalSeries, survival_laplace_axis


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
    assert len(meta["e_cut"]) == data["t"].size
    assert (meta["small_phase_pairs"] + meta["large_phase_pairs"] + meta["low_energy_pairs"]
            + meta["beyond_cut_pairs"]) == data["t"].size * meta["panels"]


def test_survive_writes_each_rotated_axis_record(workdir, capsys):
    # the rule's nodes per time, its fallback times and its estimate by part,
    # as survival_laplace_axis states them, under each method's name
    assert main(["survive", "--t_min", "400", "--t_max", "800", "--t_per_decade", "10",
                 "--methods", "laplace,laplace-threshold"]) == 0
    _, data = read_table(workdir / "survival.csv")
    meta = json.loads((workdir / "survival.meta.json").read_text())
    density = tailsurv.cli._build_density(dict(tailsurv.cli.DEFAULTS))
    for name, form in (("laplace", "continued"), ("laplace-threshold", "threshold")):
        want = survival_laplace_axis(density, data["t"], form=form).meta
        assert meta[name] == {key: want[key] for key in (
            "nodes", "fallback_times", "max_rel_error_estimate", "error_parts")}
        assert meta[name]["nodes"] == 496   # beta 0.3: 26 of 48 halving panels closed
        assert set(meta[name]["error_parts"]) == {"companion", "threshold_end", "beyond_u_max"}
    assert "e_max" in meta   # the exact route's record is still there


def test_survive_warns_below_pole_crossover(workdir, capsys):
    assert main(["survive", "--t_min", "5", "--t_max", "20",
                 "--t_per_decade", "10", "--methods", "laplace"]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "t ~ 200" in err


def test_survive_from_t_1_1_exits_zero(workdir, capsys):
    # e_max = (3 r_a / 1.1)^2 = 66.9 is off any round grid edge
    assert main(["survive", "--t_min", "1.1", "--t_max", "100"]) == 0
    assert "exact error estimate" in capsys.readouterr().out


def test_survive_deepens_past_the_e_max_cap_from_t_0_001(workdir, capsys):
    # t = 0.001 asks for e_max = (3 r_a / t)^2 = 8.1e7; the exact route starts
    # at its cap, 32400 for r_a = 3, and builds the table 4x deeper while the
    # truncation at its top is the largest part of an estimate past abs_tol
    assert main(["survive", "--t_min", "0.001", "--t_max", "1"]) == 0
    meta = json.loads((workdir / "survival.meta.json").read_text())
    assert (meta["e_max"], meta["table_builds"]) == (518400.0, 3)
    assert meta["max_error_estimate"] <= 1.0e-8


def test_survive_deepens_once_then_names_the_cut_that_follows_t(workdir, capsys):
    # from t = 1 the table ends at e_max = (3 r_a)^2 = 81, where t = 1 cuts;
    # its truncation is deepened past, to e_max 324, where t = 2.19 cuts
    # below e_max and no deeper table helps
    assert main(["survive", "--t_min", "1", "--t_max", "100", "--abs_tol", "1e-12"]) == 3
    err = capsys.readouterr().err
    assert "error-class: ToleranceError" in err
    assert "at t = 2.19206 exceeds" in err and "largest part truncation" in err
    assert err.rstrip().endswith(
        "the truncation is at this time's e_cut = 67.5781, below e_max = 324: the cut "
        "follows t through max(64, (6 r_a / t)^2), which no e_max reaches; raise abs_tol")
    assert "larger e_max" not in err


def test_survive_says_no_e_max_reaches_a_cut_that_follows_t(workdir, capsys):
    # on the default grid (e_max 8100) t = 2.17207 cuts at e_cut = 69.7, from
    # (6 r_a / t)^2: a larger e_max leaves that truncation as it is
    assert main(["survive", "--abs_tol", "1e-12"]) == 3
    err = capsys.readouterr().err
    assert "at t = 2.17207 exceeds" in err and "largest part truncation" in err
    assert err.rstrip().endswith(
        "the truncation is at this time's e_cut = 69.7371, below e_max = 8100: the cut "
        "follows t through max(64, (6 r_a / t)^2), which no e_max reaches; raise abs_tol")
    assert "larger e_max" not in err


@pytest.mark.parametrize("value", ("0", "-1", "nan"))
def test_survive_refuses_a_tolerance_that_is_not_positive(workdir, monkeypatch, capsys, value):
    def refuse(*args, **kwargs):
        raise AssertionError("the density was built")

    monkeypatch.setattr(tailsurv.cli, "_build_density", refuse)
    assert main(["survive", "--abs_tol", value]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and f"need abs_tol > 0, got {float(value):g}" in err
    assert not (workdir / "survival.csv").exists()


@pytest.mark.parametrize("out, names", (
    ("taken", "taken: cannot write table"),                    # a directory
    ("plain/density.csv", "plain/density.csv: cannot write table"),  # below a file
    ("density.csv", "density.meta.json: cannot write JSON")))  # its meta path is a directory
def test_density_write_failures_exit_two_naming_the_path(workdir, capsys, out, names):
    (workdir / "taken").mkdir()
    (workdir / "plain").write_text("a regular file\n")
    (workdir / "density.meta.json").mkdir()
    assert main(["density", "--e_points", "10", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and names in err
    assert "Traceback" not in err


def test_survive_rejects_unknown_method(workdir, capsys):
    assert main(["survive", "--methods", "magic"]) == 2
    assert "error-class: ConfigError" in capsys.readouterr().err


def test_survive_rejects_bad_time_grid(workdir, capsys):
    assert main(["survive", "--t_min", "0"]) == 2
    assert "error-class: ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("0", "-5"))
def test_survive_rejects_fewer_than_one_time_per_decade(workdir, capsys, value):
    # before, max(2, ...) turned these into a silent 2-point grid
    assert main(["survive", "--t_per_decade", value]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and f"got {float(value):g}" in err
    assert not (workdir / "survival.csv").exists()


@pytest.mark.parametrize("argv", (
    ["density", "--e_min", "0"], ["density", "--e_min", "-1"], ["density", "--e_points", "0"],
    ["density", "--e_min", "20"], ["density", "--e_max", "inf"], ["survive", "--t_max", "inf"]))
def test_grid_bounds_are_checked_before_the_grid_is_built(workdir, capsys, argv):
    # a ConfigError naming the bounds before np.geomspace runs: it would raise
    # ValueError on a zero end or count, and an infinite end overflows the
    # time grid's point count
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and "need 0 < " in err


@pytest.mark.parametrize("argv, count", (
    (["survive", "--t_per_decade", "1000000000000"], "4.301e+12 times; at most 100000"),
    (["density", "--e_points", "1000000000"], "1000000000 energies; at most 1000000")))
def test_grid_sizes_are_checked_before_the_grid_is_built(workdir, monkeypatch, capsys,
                                                         argv, count):
    # a mistyped count would ask np.geomspace for an unbounded array
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "geomspace", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and count in err


def test_missing_config_file_exits_two_naming_it(workdir, capsys):
    with pytest.raises(ConfigError, match="absent.cfg"):
        load_config(workdir / "absent.cfg")
    assert main(["show-config", "--config", "absent.cfg"]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and "absent.cfg" in err


def test_missing_table_exits_two_naming_it(workdir, capsys):
    with pytest.raises(ConfigError, match="absent.csv"):
        read_table(workdir / "absent.csv")
    assert main(["fit", "absent.csv"]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and "absent.csv" in err


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


def test_fit_on_a_degenerate_table_exits_with_a_domain_error(workdir, capsys):
    (workdir / "one_time.csv").write_text("t,P\n" + "500,1e-9\n" * 12)
    assert main(["fit", "one_time.csv"]) == 4
    captured = capsys.readouterr()
    assert "error-class: DomainError" in captured.err and "[400, 800]" in captured.err
    assert "mu_f" not in captured.out
    (workdir / "nan.csv").write_text("t,P\n" + "".join(f"{t},1e-9\n" for t in range(400, 412))
                                     + "412,nan\n")
    assert main(["fit", "nan.csv"]) == 4
    assert "positive and finite" in capsys.readouterr().err


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
    # sweep.meta.json: per beta, how the exact series was obtained and the fit's residual
    (row,) = json.loads((workdir / "sweep.meta.json").read_text())["rows"]
    assert row["beta"] == 0.3 and row["rms_residual"] == data["residual"][0]
    assert row["panels"] > 0 and row["density_evals"] > row["panels"]
    assert 0.0 < row["max_error_estimate"] < 1.0e-8
    assert set(row["error_parts"]) == {"interpolation", "truncation", "sub_threshold"}
    assert row["table_s"] > 0.0 and row["amplitude_s"] > 0.0


def test_sweep_meta_follows_the_csv(workdir, monkeypatch, capsys):
    outdir = workdir / "out"
    outdir.mkdir()
    monkeypatch.setenv("TAILSURV_OUTDIR", str(outdir))
    assert main(["sweep", "--beta_start", "0.3", "--beta_stop", "0.35", "--fit_samples", "12",
                 "--out", "s.csv"]) == 0
    capsys.readouterr()
    rows = json.loads((outdir / "s.meta.json").read_text())["rows"]
    assert [row["beta"] for row in rows] == read_table(outdir / "s.csv")[1]["beta"].tolist()


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


@pytest.mark.parametrize("step", ("1e-300", "1e-4", "nan"))
def test_sweep_rejects_a_grid_past_its_cap_naming_the_count(workdir, capsys, step):
    # counted before np.arange, which fails on 1e-300 with a ValueError
    assert main(["sweep", "--beta_step", step]) == 2
    err = capsys.readouterr().err
    assert "error-class: ConfigError" in err and "at most 10000 are allowed" in err
    assert {"1e-300": "1.45e+300", "1e-4": "1.45e+04", "nan": "nan"}[step] in err


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
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3
    assert "FAIL" not in out
    cost = out.splitlines()[-1]
    assert cost.startswith("cost: rk4_steps ")
    assert re.search(r"\bdensity_calls [1-9]\d*,", cost)
    assert re.search(r"\btail_estimate \d\.\d+e-1[3-9],", cost)
    meta = json.loads((workdir / "verify.meta.json").read_text())
    assert [row["name"] for row in meta["checks"]] == [
        line.split(":")[0].split(None, 1)[1] for line in out.splitlines()[:3]]
    assert all(row["passed"] and row["measured"] <= row["tolerance"] for row in meta["checks"])
    assert meta["density_s"] > 0.0 and meta["tail_estimate"] <= 1.0e-12


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
