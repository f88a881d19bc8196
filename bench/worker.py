"""One benchmark process: set up one workload, then run it.

Usage: worker.py --workload NAME --seed N --t0 T --mode setup|timed|traced
                 [--seconds S] [--spans FILE]

Started by bench/run.py, which sets PYTHONPATH to the checkout's sources
and pins the BLAS threads.

T is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is system-wide, so ``setup_s`` covers
interpreter start, ``import lagidx`` and input generation.  Prints one
JSON object on its last line.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    import lagidx
    import_ms = (time.perf_counter() - start) * 1e3
    scipy_loaded = "scipy.linalg" in sys.modules
    if Path(lagidx.__file__).resolve().parent != SRC / "lagidx":
        raise SystemExit(f"lagidx was imported from {lagidx.__file__}, not from {SRC}")

    import loop
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    pool = workload.setup(args.seed)
    setup_s = time.perf_counter() - args.t0
    try:
        if args.mode == "setup":
            out = {"setup_s": setup_s}
        elif args.mode == "timed":
            out = loop.timed_loop(workload, pool, args.seconds)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            out["setup_s"] = setup_s
        else:
            out = loop.traced_run(workload, args.seed, pool, import_ms, scipy_loaded, args.spans)
    finally:
        workload.close()
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
