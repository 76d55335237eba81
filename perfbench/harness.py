"""Timing loop, host-speed scaling and metrics of one workload run.

A run times SETUP_STARTS fresh interpreters to first op ready, builds
the workload in this process, runs and checks one untimed warm-up op,
then runs whole rounds of ops until `seconds` have passed.  A reference
block (reference.py) runs right before and right after every timed op
and setup start; each raw time is scaled by NOMINAL_REF_S over the mean
of its two reference times.  Checks run after the closing reference
block, outside the timed region.

With tracing on, odd rounds run traced and even rounds untraced: the
end-to-end figures come from the untraced ops, the per-layer figures
from the traced ones, and the difference of their medians is the
tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

from reference import NOMINAL_REF_S, reference_block
from tracer import Tracer

SETUP_STARTS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (tracer layer, field, is a time); all per traced op
LAYER_FIELDS = {
    "model.validate_calls": ("model.validate", "calls", False),
    "model.validate_s": ("model.validate", "self_s", True),
    "model.boundary_elements": ("model.boundary", "elements", False),
    "model.boundary_s": ("model.boundary", "self_s", True),
    "oracle.count_nodes_s": ("oracle.count_nodes", "self_s", True),
    "oracle.bruteforce_points": ("oracle.bruteforce", "omega_elements", False),
    "oracle.bruteforce_s": ("oracle.bruteforce", "self_s", True),
    "oracle.rk4_s": ("oracle.rk4", "self_s", True),
    "specfun.riccati_calls": ("specfun.riccati", "calls", False),
    "specfun.riccati_elements": ("specfun.riccati", "elements", False),
    "specfun.riccati_s": ("specfun.riccati", "self_s", True),
    "spectral.omega_calls": ("spectral.omega", "calls", False),
    "spectral.omega_elements": ("spectral.omega", "elements", False),
    "spectral.omega_self_s": ("spectral.omega", "self_s", True),
    "survival.exact_calls": ("survival.exact", "calls", False),
    "survival.times_evaluated": ("survival.exact", "times", False),
    "survival.panels": ("survival.exact", "panels", False),
    "survival.density_evals": ("survival.exact", "density_evals", False),
    "survival.exact_self_s": ("survival.exact", "self_s", True),
    "survival.laplace_s": ("survival.laplace", "self_s", True),
    "analysis.fit_s": ("analysis.fit", "self_s", True),
    "emit.write_s": ("emit.write", "self_s", True),
    "emit.bytes_written": ("emit.write", "bytes", False),
}
# figures the runner adds to the tracer's
DERIVED_LAYER = ("cli.import_s", "survival.laplace_omega_calls_per_time",
                 "trace.op_wall_s", "trace.overhead_s", "trace.unattributed_s")
PER_LAYER = tuple(LAYER_FIELDS) + DERIVED_LAYER


def per_layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("bytes_written") else "count"


def timed(fn):
    """(result, raw seconds, mean of the reference times around it)."""
    before = reference_block()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt, 0.5 * (before + reference_block())


def time_setup(name: str, seed: int, runner: list[str]) -> list[dict]:
    """Time SETUP_STARTS fresh interpreters from spawn to first op ready."""
    cmd = runner + ["--setup-child", "--workload", name, "--seed", str(seed)]
    starts = []
    for _ in range(SETUP_STARTS):
        def start():
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: setup start failed:\n{proc.stderr}")
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            return child["ready"] - t0, child["import_s"]
        (raw, import_s), _, ref = timed(start)
        starts.append({"raw_s": raw, "import_s": import_s, "ref_s": ref})
    return starts


def run_workload(cls, seed: int, seconds: float, trace: bool, out_dir: Path,
                 runner: list[str]) -> dict:
    starts = time_setup(cls.name, seed, runner)
    wl = cls(seed, out_dir)
    tracer = Tracer()
    if trace:
        tracer.install()

    warm = wl.warmup_input()
    problems = wl.check(warm, wl.run(warm))[1]
    ops: list[dict] = []
    t_start = time.perf_counter()
    r = 0
    while r < (2 if trace else 1) or time.perf_counter() - t_start < seconds:
        on = trace and r % 2 == 1
        for inp in wl.round_inputs(r):
            tracer.enabled = on
            out, raw, ref = timed(lambda: wl.run(inp))
            tracer.enabled = False
            op_failed, op_problems = wl.check(inp, out)
            ops.append({"raw_s": raw, "ref_s": ref, "traced": on, "failed": op_failed})
            problems += op_problems
        r += 1
    if trace:
        tracer.uninstall()
        (out_dir / f"trace-{cls.name}-seed{seed}.json").write_text(
            json.dumps(tracer.spans, separators=(",", ":")))
    return summarise(cls.name, seed, starts, ops, r, problems, tracer.summary())


def scaled(rec: dict) -> float:
    """A raw time in seconds on a reference host at its usual speed."""
    return rec["raw_s"] * NOMINAL_REF_S / rec["ref_s"]


def summarise(name, seed, starts, ops, rounds, problems, layer_sums) -> dict:
    plain = [o for o in ops if not o["traced"]]
    refs = [o["ref_s"] for o in ops] + [s["ref_s"] for s in starts]
    res = {
        "workload": name, "seed": seed, "correct": not problems, "problems": problems,
        "attempted": len(ops), "failed": sum(o["failed"] for o in ops), "rounds": rounds,
        "scale": NOMINAL_REF_S / statistics.median(refs),
        "setup_s": statistics.median(scaled(s) for s in starts),
        "setup_raw_s": statistics.median(s["raw_s"] for s in starts),
        "import_s": statistics.median(s["import_s"] for s in starts),
        "op_p50_s": statistics.median(scaled(o) for o in plain),
        "op_p50_raw_s": statistics.median(o["raw_s"] for o in plain),
        "ops_per_s": len(plain) / sum(scaled(o) for o in plain),
        "ops_per_s_raw": len(plain) / sum(o["raw_s"] for o in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    on = [o for o in ops if o["traced"]]
    if on:
        res["layers"] = layer_figures(layer_sums, on, starts, res["op_p50_s"])
    return res


def layer_figures(sums: dict, traced: list[dict], starts: list[dict],
                  untraced_p50: float) -> dict:
    """Per traced op: counts as measured, times scaled like the end-to-end ones.

    Layer times take the traced ops' own time-weighted scale factor, so
    that trace.unattributed_s is the op wall time less every self time.
    """
    n = len(traced)
    wall = sum(scaled(o) for o in traced)
    k = wall / sum(o["raw_s"] for o in traced)
    out = {}
    for metric, (layer, field, is_time) in LAYER_FIELDS.items():
        val = sums.get(layer, {}).get(field, 0.0) / n
        out[metric] = val * k if is_time else val
    lap = sums.get("survival.laplace", {})
    out["survival.laplace_omega_calls_per_time"] = (
        lap["omega_calls"] / lap["times"] if lap.get("times") else 0.0)
    out["cli.import_s"] = statistics.median(
        scaled({"raw_s": s["import_s"], "ref_s": s["ref_s"]}) for s in starts)
    out["trace.op_wall_s"] = wall / n
    out["trace.overhead_s"] = statistics.median(scaled(o) for o in traced) - untraced_p50
    out["trace.unattributed_s"] = wall / n - sum(
        out[m] for m, (_, _, is_time) in LAYER_FIELDS.items() if is_time)
    return out


def report(res: dict, trace: bool) -> dict:
    """Print the readable lines of a run; return its result object."""
    print(f"# {res['workload']} seed {res['seed']}: {res['attempted']} ops in "
          f"{res['rounds']} rounds, {res['failed']} failed; scale {res['scale']:.4f} "
          f"(nominal reference {NOMINAL_REF_S * 1e3:.1f} ms)")
    for p in res["problems"]:
        print(f"# CHECK FAILED: {p}")
    if trace:
        metrics = {k: {"value": res["layers"][k], "unit": per_layer_unit(k)}
                   for k in PER_LAYER}
        for k, m in metrics.items():
            print(f"#   {k:40s} {m['value']:.6g} {m['unit']}")
    else:
        raw = {"setup_s": res["setup_raw_s"], "ops_per_s": res["ops_per_s_raw"],
               "op_p50_s": res["op_p50_raw_s"], "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
        for k, m in metrics.items():
            print(f"#   {k:12s} {m['value']:.6g} {m['unit']} (raw {raw[k]:.6g})")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
