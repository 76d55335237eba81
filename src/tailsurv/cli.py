"""Command-line front end.

Subcommands compute the energy density, survival curves, exponent
sweeps, and arc-decay diagnostics, emitting CSV/JSON files suitable
for plotting or re-fitting.  Configuration is resolved in three
layers: built-in defaults (the reference potential), then a flat
key=value config file (--config), then individual command-line
overrides.  The TAILSURV_OUTDIR environment variable relocates
relative output paths; it never affects anything else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import beta_sweep, fit_power_law
from .emit import _read_text, read_table, write_json, write_model_json, write_table
from .errors import ConfigError, TailsurvError, ToleranceError
from .model import InitialState, WBPotential
from .spectral import SpectralDensity, arc_density_magnitude
from .survival import (SurvivalSeries, asymptote_one_term, asymptote_series,
                       spectral_mass, survival_exact, survival_laplace_axis)

DEFAULTS: dict[str, object] = {
    # reference potential and initial state
    "v0": 0.5,
    "vb": 1.8,
    "r_a": 3.0,
    "r_d": 3.4,
    "beta": 0.3,
    "n_a": 1,
    # time grid: logarithmic, 200 points per decade
    "t_min": 0.1,
    "t_max": 2000.0,
    "t_per_decade": 200,
    # energy grid for density emission
    "e_min": 1.0e-4,
    "e_max": 16.0,
    "e_points": 600,
    # fitting and sweeping
    "fit_lo": 400.0,
    "fit_hi": 800.0,
    "fit_samples": 50,
    "beta_start": -0.45,
    "beta_stop": 1.0,
    "beta_step": 0.05,
    # survival methods and tolerances
    "methods": "exact",
    "n_terms": 4,
    "abs_tol": 1.0e-8,
    # arc diagnostics
    "arc_radii": "50,100,200,400",
    "arc_angles": "-pi/16,-pi/8,-3pi/16",
    # output
    "out": "",
}

_METHODS = ("exact", "laplace", "laplace-threshold", "one-term", "series")

# Config keys of the geometry, of the potential and of it with its initial state.
_GEOMETRY_KEYS = ("v0", "vb", "r_a", "r_d")
_POTENTIAL_KEYS = _GEOMETRY_KEYS + ("beta",)
_STATE_KEYS = _POTENTIAL_KEYS + ("n_a",)


def _parse_value(key: str, text: str):
    kind = type(DEFAULTS[key])
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError:
        raise ConfigError(f"config key {key}: expected {kind.__name__}, got {text!r}")
    return text


def load_config(path) -> dict:
    """Flat key=value file; # starts a comment; unknown keys rejected."""
    cfg = {}
    for ln, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        cfg[key] = _parse_value(key, val.strip())
    return cfg


def _resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _out_path(cfg: dict, fallback: str) -> Path:
    name = str(cfg["out"]) or fallback
    path = Path(name)
    outdir = os.environ.get("TAILSURV_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _potential_from_cfg(cfg: dict) -> WBPotential:
    return WBPotential(**{key: float(cfg[key]) for key in _POTENTIAL_KEYS})


def _build_density(cfg: dict) -> SpectralDensity:
    pot = _potential_from_cfg(cfg)
    init = InitialState.from_potential(pot, n_a=int(cfg["n_a"]))
    return SpectralDensity(pot, init)


# Times per survive grid.  survival_exact costs ~6 us and ~0.4 KB per time
# (1e5 times took 0.61 s and +37 MB): a bound that keeps a mistyped
# t_per_decade from asking for an unbounded grid.
_MAX_TIMES = 100_000

# Energies per density grid, the same kind of bound on e_points: omega
# costs ~0.3 us and ~130 B per energy (1e6 energies took 0.29 s and +126 MB).
_MAX_ENERGIES = 1_000_000


def _time_grid(cfg: dict) -> np.ndarray:
    t_min, t_max = float(cfg["t_min"]), float(cfg["t_max"])
    if not 0 < t_min < t_max < math.inf:
        raise ConfigError(f"need 0 < t_min < t_max < inf, got [{t_min:g}, {t_max:g}]")
    per_decade = float(cfg["t_per_decade"])
    if per_decade < 1:
        raise ConfigError(f"need t_per_decade >= 1, got {per_decade:g}")
    count = per_decade * math.log10(t_max / t_min)
    if not count <= _MAX_TIMES:
        raise ConfigError(f"the time grid holds {count:.4g} times; "
                          f"at most {_MAX_TIMES} are allowed")
    return np.geomspace(t_min, t_max, max(2, round(count)))


def _parse_list(text: str, parse, what: str) -> list[float]:
    """The comma-separated entries of text through parse; blanks are skipped."""
    out = []
    for part in filter(None, (p.strip() for p in str(text).split(","))):
        try:
            out.append(parse(part))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad {what} {part!r}") from None
    return out


def _simple_ratio(text: str) -> float:
    """Parse 'c', 'cpi', 'cpi/d', '-pi/16' style angle strings."""
    text = text.strip().replace(" ", "")
    den = 1.0
    if "/" in text:
        text, den_s = text.split("/", 1)
        den = float(den_s)
    if "pi" in text:
        coeff_s = text.replace("pi", "")
        if coeff_s in ("", "+", "-"):
            coeff_s += "1"
        num = float(coeff_s) * math.pi
    else:
        num = float(text)
    return num / den


# ----------------------------------------------------------------- #
# subcommands                                                       #
# ----------------------------------------------------------------- #

def cmd_density(cfg: dict, args: argparse.Namespace) -> int:
    e_min, e_max, n = float(cfg["e_min"]), float(cfg["e_max"]), int(cfg["e_points"])
    if not (0 < e_min < e_max < math.inf and n >= 1):
        raise ConfigError(f"need 0 < e_min < e_max < inf and e_points >= 1, got [{e_min:g}, "
                          f"{e_max:g}] and {n}")
    if n > _MAX_ENERGIES:
        raise ConfigError(f"the energy grid holds {n} energies; "
                          f"at most {_MAX_ENERGIES} are allowed")
    density = _build_density(cfg)
    e = np.geomspace(e_min, e_max, n)
    om = density.omega(e)
    path = _out_path(cfg, "density.csv")
    write_table(path, ["E", "omega"], [e, om])
    norm = spectral_mass(density)
    write_json(path.with_suffix(".meta.json"), {"points": e.size, "e_min": e[0], "e_max": e[-1],
                                                "spectral_mass": norm, "mass_error": abs(norm - 1.0)})
    print(f"density: {e.size} points -> {path} (integral over continuum: {norm:.9f})")
    return 0


def cmd_survive(cfg: dict, args: argparse.Namespace) -> int:
    abs_tol = float(cfg["abs_tol"])
    if not abs_tol > 0.0:   # NaN too
        raise ConfigError(f"need abs_tol > 0, got {abs_tol:g}")
    times = _time_grid(cfg)
    density = _build_density(cfg)
    methods = [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {_METHODS}")
    if "exact" not in methods:
        methods.insert(0, "exact")

    header = ["t"]
    columns = []
    rotated = {}   # each rotated-axis method's rule record, under its name
    exact = survival_exact(density, times, abs_tol=abs_tol)
    columns.append(exact.probability)
    header.append("P_exact")
    for m in methods:
        if m == "exact":
            continue
        if m in ("laplace", "laplace-threshold"):
            if times[0] < 200.0:
                print("warning: the rotated-contour representation omits the "
                      "resonance-pole part, significant below t ~ 200; "
                      f"grid starts at t = {times[0]:g}", file=sys.stderr)
            form = "continued" if m == "laplace" else "threshold"
            ser = survival_laplace_axis(density, times, form=form)
            rotated[m] = {key: ser.meta[key] for key in (
                "nodes", "fallback_times", "max_rel_error_estimate", "error_parts")}
            columns.append(ser.probability)
            header.append(f"P_{m.replace('-', '_')}")
        elif m == "one-term":
            model = asymptote_one_term(density.threshold)
            columns.append(model.evaluate(times).probability)
            header.append("P_one_term")
        elif m == "series":
            model = asymptote_series(density.threshold, int(cfg["n_terms"]))
            columns.append(model.evaluate(times).probability)
            header.append(f"P_series_{int(cfg['n_terms'])}")
            write_model_json(_out_path(cfg, "survival.csv").with_suffix(".model.json"),
                             model)
    path = _out_path(cfg, "survival.csv")
    start = time.perf_counter()
    write_table(path, header, [times] + columns)
    write_json(path.with_suffix(".meta.json"),
               {**exact.meta, **rotated, "write_s": time.perf_counter() - start})
    print(f"survival: {times.size} times, methods {','.join(methods)} -> {path} "
          f"(exact error estimate {exact.meta['max_error_estimate']:.2e})")
    return 0


# Tail strengths per sweep, each a potential validation and a panel table
# (~3 ms): a bound that keeps a mistyped step from asking for an unbounded grid.
_MAX_SWEEP_BETAS = 10_000


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    start, stop, step = (float(cfg["beta_start"]), float(cfg["beta_stop"]),
                         float(cfg["beta_step"]))
    if step <= 0 or stop < start:
        raise ConfigError("need beta_step > 0 and beta_stop >= beta_start")
    count = (stop - start) / step + 1.0
    if not count <= _MAX_SWEEP_BETAS:
        raise ConfigError(f"the sweep grid holds {count:.4g} tail strengths; "
                          f"at most {_MAX_SWEEP_BETAS} are allowed")
    betas = np.round(np.arange(start, stop + step / 2, step), 10)
    base = _potential_from_cfg(dict(cfg, beta=betas[0]))  # the sweep sets beta
    rows = beta_sweep(base, betas,
                      window=(float(cfg["fit_lo"]), float(cfg["fit_hi"])),
                      n_samples=int(cfg["fit_samples"]))
    path = _out_path(cfg, "sweep.csv")
    write_table(path, ["beta", "mu_f", "prefactor", "mu_predicted", "residual"],
                [[r.beta for r in rows], [r.mu_f for r in rows],
                 [r.prefactor for r in rows], [r.mu_predicted for r in rows],
                 [r.residual for r in rows]])
    write_json(path.with_suffix(".meta.json"),
               {"rows": [dict(beta=r.beta, **r.meta) for r in rows]})
    print(f"sweep: {len(rows)} tail strengths -> {path}")
    return 0


def cmd_arc_check(cfg: dict, args: argparse.Namespace) -> int:
    density = _build_density(cfg)
    pot, init = density.pot, density.init
    radii = _parse_list(cfg["arc_radii"], float, "radius")
    angles = _parse_list(cfg["arc_angles"], _simple_ratio, "angle")
    if len(radii) < 2:
        raise ConfigError("arc check needs at least two radii")
    all_ok = True
    print(f"# arc decay check: beta={pot.beta:g}")
    print("# angle_rad radius |G|")
    for ang in angles:
        vals = [arc_density_magnitude(pot, init, r, ang) for r in radii]
        ok = all(b < a for a, b in zip(vals, vals[1:]))
        all_ok &= ok
        for r, v in zip(radii, vals):
            print(f"{ang:+.10f} {r:g} {v:.17g}")
        print(f"# angle {ang:+.10f}: " + ("decreasing" if ok else "NOT DECREASING"))
    if not all_ok:
        raise ToleranceError("|G| failed to decrease along at least one ray")
    return 0


def cmd_fit(cfg: dict, args: argparse.Namespace) -> int:
    path, column = args.file, args.column
    header, data = read_table(path)
    if "t" not in data:
        raise ConfigError(f"{path}: no 't' column (found {header})")
    if column is None:
        candidates = [h for h in header if h != "t"]
        if not candidates:
            raise ConfigError(f"{path}: no data columns")
        column = candidates[0]
    if column not in data:
        raise ConfigError(f"{path}: no column {column!r} (found {header})")
    series = SurvivalSeries(times=data["t"], probability=data[column],
                            amplitudes=None, method=f"file:{column}")
    fit = fit_power_law(series, float(cfg["fit_lo"]), float(cfg["fit_hi"]))
    print(f"fit: column {column}, window [{fit.window[0]:g}, {fit.window[1]:g}], "
          f"{fit.n_points} points")
    print(f"mu_f = {fit.mu_f:.17g}")
    print(f"prefactor = {fit.prefactor:.17g}")
    print(f"rms_residual_lnP = {fit.rms_residual:.17g}")
    return 0


def cmd_show_config(cfg: dict, args: argparse.Namespace) -> int:
    for key in DEFAULTS:
        print(f"{key} = {cfg[key]}")
    return 0


def cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    from .oracle import run_verification

    density = _build_density(cfg)
    report = run_verification(density)
    for line in report.lines():
        print(line)
    write_json(_out_path(dict(cfg, out=""), "verify.meta.json"),  # verify reads no out key
               {"checks": [dict(vars(c), passed=c.passed) for c in report.checks], **report.meta})
    print("cost: " + ", ".join(f"{key} {val:.3g}" if isinstance(val, float)
                               else f"{key} {val}" for key, val in report.meta.items()))
    if not report.all_passed:
        raise ToleranceError("oracle verification failed")
    return 0


# name: (handler, help, the config keys it reads, each also a flag)
COMMANDS = {
    "density": (cmd_density, "emit the energy density on a grid",
                _STATE_KEYS + ("e_min", "e_max", "e_points", "out")),
    "survive": (cmd_survive, "emit survival curves (exact and asymptotic)",
                _STATE_KEYS + ("t_min", "t_max", "t_per_decade", "methods",
                               "n_terms", "abs_tol", "out")),
    "sweep": (cmd_sweep, "emit the effective-exponent sweep over tail strengths",
              _GEOMETRY_KEYS + ("fit_lo", "fit_hi", "fit_samples", "beta_start",
                                 "beta_stop", "beta_step", "out")),
    "arc-check": (cmd_arc_check, "report |G| decay along lower-half-plane rays",
                  _STATE_KEYS + ("arc_radii", "arc_angles")),
    "show-config": (cmd_show_config, "print the resolved configuration",
                    tuple(DEFAULTS)),
    "fit": (cmd_fit, "fit a power law to an emitted survival file",
            ("fit_lo", "fit_hi")),
    "verify": (cmd_verify, "cross-check the boundary data, Jost modulus and "
                           "exact survival against independent oracles", _STATE_KEYS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailsurv",
        description="Survival-probability toolkit for a well-barrier "
                    "potential with an inverse-square tail.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # no prefix flags
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            val = DEFAULTS[key]
            p.add_argument(f"--{key}", type=type(val), default=None,
                           help=f"override (default {val!r})")
        if name == "fit":
            p.add_argument("file", help="CSV with a t column and data columns")
            p.add_argument("--column", default=None,
                           help="data column to fit (default: first)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return COMMANDS[args.command][0](cfg, args)
    except TailsurvError as exc:
        print(f"error-class: {type(exc).__name__}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
