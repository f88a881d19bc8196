"""lagidx benchmark: one workload, one closed-loop caller, BLAS pinned to one thread.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: triples-small, triples-large, maslov-paths, cli-cold (see
bench/METRICS.md for why each exists).  With --trace 0 the workload runs
untraced for S seconds (rounded up to whole passes over its input pool)
and the end-to-end metrics are reported; set-up is repeated in separate
processes and its median reported.  With --trace 1 a fixed, seeded op
list runs once untraced and once with every traced lagidx function
wrapped, and the per-layer metrics are reported.  Every op is checked
against an oracle.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a full record goes to
.bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("triples-small", "triples-large", "maslov-paths", "cli-cold")
SETUPS = 5  # set-ups per timed run; setup_s is their median
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}, **git_state()}


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or unknown outside git."""
    if shutil.which("git") is None:
        return {"commit": "unknown", "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    run = lambda *a: subprocess.run(["git", *a], cwd=ROOT, env=env, capture_output=True, text=True)
    head = run("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": "unknown", "dirty": None}
    status = run("status", "--porcelain", "--untracked-files=no")
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def spawn(args, mode: str, deadline: float, *extra) -> dict:
    """Run one worker process to completion and return its JSON line."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def report_outcomes(res: dict) -> None:
    n = res["attempted"]
    print(f"  failed_frac    {res['failed_frac']!r} fraction  ({res['failed']} of {n} ops)")
    print(f"  wrong_frac     {res['wrong_frac']!r} fraction  ({res['wrong']} of {n} ops)")
    verdict = "PASS" if res["wrong"] == 0 else "FAIL"
    print(f"  oracle         {verdict}: {res['wrong']} wrong answers, "
          f"{res['failed'] - res['wrong']} typed errors")
    for entry in res["listed"]:
        print(f"  {entry['kind']} x{entry['count']} at seed {entry['seed']}: {entry['detail']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + BUDGET_S

    package = ROOT / "src" / "lagidx"
    if not (package / "__init__.py").is_file():
        print(f"error: no lagidx sources under {package}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    for var in ("LAGIDX_TOL_RANK", "LAGIDX_TOL_RESIDUAL"):
        os.environ.pop(var, None)
    # Every process then imports the same, already compiled bytecode.
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (package, BENCH)):
        print("error: byte-compiling lagidx failed", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            res = spawn(args, "traced", deadline, "--spans", str(OUT_DIR / f"spans-{tag}.jsonl"))
            values = res["metrics"]
        else:
            # Set-ups before and after the timed run, so that their median
            # does not rest on one moment of a shared machine.
            setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUPS // 2)]
            res = spawn(args, "timed", deadline)
            setups.append(res["setup_s"])
            setups += [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUPS // 2)]
            res["setups_s"] = setups
            values = metrics.end_to_end_values(res["latencies_ms"], res["pass_size"],
                                               statistics.median(setups), res["peak_rss_mb"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = {**machine(), **res.pop("environment")}
    print(f"lagidx benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} run, one closed-loop caller")
    print(f"environment: {json.dumps(env)}")
    notes = {}
    if args.trace:
        print(f"  {res['ops']} ops, traced once and untraced once")
    else:
        lat = res["latencies_ms"]
        steady, kept, passes = metrics.steady_passes(lat, res["pass_size"])
        _, pct, above = metrics.tail(steady)
        print(f"  {len(lat)} ops in {passes} passes over a pool of {res['pass_size']} inputs; "
              f"the tail uses the {len(steady)} ops of the {kept} fastest passes "
              f"(tail over all ops: {metrics.tail(lat)[0]:.4f} ms)")
        notes = {"op_tail_ms": f"p{pct:.2f} of {len(steady)} samples, {above} above it",
                 "op_p50_ms": f"median of {len(lat)} samples",
                 "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
                 "peak_rss_mb": "CLI children" if args.workload == "cli-cold" else "this workload's process"}
    for name, m in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {m['value']!r} {m['unit']}{note}")
    report_outcomes(res)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": values,
              **{k: v for k, v in res.items() if k != "metrics"}}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
