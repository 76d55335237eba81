"""End-to-end and per-layer benchmark of tailsurv.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Without --workload every workload runs in turn in this one process.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
scaled time beside its raw value and the host-speed scale factor.  The
exit code is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before numpy is imported:
# on a 2-CPU host a second BLAS thread only adds CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170   # a workload run that takes longer exits with a traceback
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


def import_tailsurv() -> float:
    """Import tailsurv.cli from this checkout's src/; return the seconds taken.

    Nothing but the standard library is imported before this, so the
    time includes numpy and scipy as a CLI start does.
    """
    if not (SRC / "tailsurv" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tailsurv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tailsurv.cli
    elapsed = time.perf_counter() - start
    if Path(tailsurv.cli.__file__).resolve().parent != SRC / "tailsurv":
        raise SystemExit(f"perfbench: imported tailsurv from {tailsurv.cli.__file__}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tailsurv benchmark")
    parser.add_argument("--workload", help="one workload; default: all in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = import_tailsurv()
    from workloads import WORKLOADS

    if args.setup_child:
        # one fresh-interpreter start, timed by the parent to this line
        WORKLOADS[args.workload](args.seed, OUT_DIR)
        print(json.dumps({"ready": time.monotonic(), "import_s": import_s}), flush=True)
        return 0

    from harness import report, run_workload

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for name in names:
        faulthandler.dump_traceback_later(RUN_LIMIT_S, exit=True)
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           OUT_DIR, [sys.executable, str(Path(__file__).resolve())])
        (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n")
        faulthandler.cancel_dump_traceback_later()
        result = report(res, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
