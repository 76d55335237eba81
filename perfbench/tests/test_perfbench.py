"""Tests of the benchmark itself: names, a short run, and its checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads as W  # noqa: E402
from tailsurv.oracle import OracleCheck, OracleReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        m: harness.per_layer_unit(m) for m in harness.PER_LAYER}


def run_bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric(trace):
    result = run_bench("--workload", "laplace-tail", "--seed", "3",
                       "--seconds", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # --seconds 0 still runs whole rounds: one, or two when traced
    assert result["attempted"] == (1 + trace) * len(W.POOL_CENTRES["laplace-tail"])
    names = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


# ----------------------------------------------------------------- #
# one round of every workload, kept for the perturbation tests      #
# ----------------------------------------------------------------- #

@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    done = {}
    for name, cls in W.WORKLOADS.items():
        wl = cls(7, out_dir)
        done[name] = (wl, [(inp, wl.run(inp)) for inp in wl.round_inputs(0)])
    return done


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_minimal_round_passes_its_checks(rounds, name):
    wl, ops = rounds[name]
    results = [wl.check(inp, out) for inp, out in ops]
    assert [p for _, p in results] == [[]] * len(ops)
    # only the known fault fails: the sweep's far-node well, once a round
    assert sum(f for f, _ in results) == (name == "sweep")


def scaled_p(series, factor=1.0 + 1.0e-6):
    return dataclasses.replace(series, probability=series.probability * factor)


def test_survive_grid_checks_catch_perturbed_p(rounds):
    wl, ops = rounds["survive-grid"]
    for inp, out in ops:   # one bruteforce-checked op, one laplace-checked op
        problems = wl.check(inp, dict(out, exact=scaled_p(out["exact"])))[1]
        cross = {"bruteforce": "brute force", "laplace": "rotated axis"}[inp["kind"]]
        assert any(p.startswith(cross) for p in problems)
        assert any("round-trip" in p for p in problems)
    series = ops[0][1]["exact"]
    over = series.probability.copy()
    over[-1] = 1.0 + 1e-12
    assert W.probability_problems(dataclasses.replace(series, probability=over))
    loose = dataclasses.replace(series, meta=dict(series.meta, max_error_estimate=2e-8))
    assert W.probability_problems(loose)


def test_sweep_checks_catch_wrong_decisions_and_exponents(rounds):
    wl, ops = rounds["sweep"]
    accepted = [(inp, out) for inp, out in ops if out["accepted"]
                and not wl.check(inp, out)[0]]
    repulsive = [(inp, out) for inp, out in accepted if 0.0 <= inp["beta"] <= 0.7]
    for inp, out in accepted:
        assert wl.check(inp, {"accepted": False})[1]
        fit = dataclasses.replace(out["fit"], mu_f=out["fit"].mu_f * (1 + 1e-6))
        assert wl.check(inp, dict(out, fit=fit))[1]
    inp, out = repulsive[0]
    tilted = dataclasses.replace(out["series"], probability=out["series"].probability
                                 * (out["series"].times / 400.0) ** -0.08)
    refit = dict(out, series=tilted, fit=W.analysis.fit_power_law(tilted, 400.0, 800.0))
    assert any("predicted" in p for p in wl.check(inp, refit)[1])
    deep, far = ops[-2][0], ops[-1][0]
    assert wl.check(deep, {"accepted": True, **accepted[0][1]})[1]
    # the far-node well fails today; rejecting it would pass
    assert wl.check(far, ops[-1][1]) == (True, [])
    assert wl.check(far, {"accepted": False}) == (False, [])


def test_laplace_tail_check_catches_perturbed_p(rounds):
    wl, ops = rounds["laplace-tail"]
    for inp, out in ops:
        assert wl.check(inp, scaled_p(out))[1]


def test_verify_check_catches_a_failed_or_missing_row(rounds):
    wl, ops = rounds["verify"]
    inp, report = ops[0]
    rows = list(report.checks)
    rows[2] = OracleCheck(rows[2].name, 2.0 * rows[2].tolerance, rows[2].tolerance)
    assert wl.check(inp, OracleReport(checks=tuple(rows)))[1]
    assert wl.check(inp, OracleReport(checks=tuple(rows[:2])))[1]


def test_closed_form_node_count_matches_known_wells():
    # reference well: no bound state; deeper wells: node in the well
    assert W.zero_energy_nodes(**W.GEOMETRY, beta=0.3) == (0, None)
    assert W.zero_energy_nodes(**dict(W.GEOMETRY, v0=1.5), beta=0.3)[0] == 1
    # v0 = 0.58, beta = -0.1 holds a bound state with its node near r = 48.6
    count, r0 = W.zero_energy_nodes(**dict(W.GEOMETRY, v0=0.58), beta=-0.1)
    assert count == 1 and abs(r0 - 48.6) < 0.1
    geom = W.far_node_geometry(3)
    assert W.zero_energy_nodes(**geom)[1] == pytest.approx(20.0 * geom["r_d"], rel=1e-6)
