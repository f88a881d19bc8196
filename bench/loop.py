"""Closed-loop drivers: the timed loop and the traced run.

One caller issues one op at a time; the next op starts when the previous
one returns.  Only the op is timed; the oracle check runs between ops.
"""

from __future__ import annotations

import json
import statistics
import time

import metrics
import tracer as tr
from workloads import FAILURES


class Outcomes:
    """Failed and wrong ops, listed by the seed of their input."""

    def __init__(self):
        self.failed = 0
        self.wrong = 0
        self.listed: dict = {}

    def add(self, item, kind: str, detail) -> None:
        self.failed += 1
        self.wrong += kind == "wrong"
        entry = self.listed.setdefault((kind, tuple(item.seed)),
                                       {"kind": kind, "seed": item.seed, "count": 0,
                                        "detail": detail})
        entry["count"] += 1

    def listing(self) -> list:
        return list(self.listed.values())


def run_op(workload, item, outcomes: Outcomes, tracer=None, run=None):
    """Run and check one op; return (latency in ns, result or None)."""
    start = time.perf_counter_ns()
    try:
        result = (run or workload.run)(item)
    except FAILURES as exc:
        elapsed = time.perf_counter_ns() - start
        outcomes.add(item, "error", f"{type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.paused = True
    try:
        problems = workload.check(item, result)
    finally:
        if tracer is not None:
            tracer.paused = False
    if problems:
        outcomes.add(item, "wrong", problems)
    return elapsed, result


def timed_loop(workload, pool: list, seconds: float) -> dict:
    """Cycle through the whole pool until ``seconds`` have passed, so every
    run has the same op mix."""
    latencies_ms = []
    outcomes = Outcomes()
    start = time.perf_counter()
    while True:
        for item in pool:
            elapsed, _ = run_op(workload, item, outcomes)
            latencies_ms.append(elapsed / 1e6)
        if time.perf_counter() - start >= seconds:
            break
    attempted = len(latencies_ms)
    return {"latencies_ms": latencies_ms, "pass_size": len(pool), "attempted": attempted,
            "failed": outcomes.failed,
            "wrong": outcomes.wrong, "failed_frac": outcomes.failed / attempted,
            "wrong_frac": outcomes.wrong / attempted, "listed": outcomes.listing()}


def run_pass(workload, ops: list, outcomes: Outcomes, tracer=None, run=None):
    """One pass over a fixed op list; returns (total op ns, result digests)."""
    total, digests = 0, []
    for index, item in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        elapsed, result = run_op(workload, item, outcomes, tracer, run)
        total += elapsed
        digests.append(None if result is None else workload.summary(result))
    return total, digests


def traced_run(workload, seed: int, pool: list, import_ms: float, scipy_loaded: bool,
               spans_file=None) -> dict:
    """Untraced pass, then a traced pass over the same fixed op list.

    Unless the workload opts out, the traced pass rebuilds the pool under
    the tracer, so input generation is traced too; per-op values divide
    by the op count.
    """
    ops = pool * workload.trace_passes
    outcomes = Outcomes()
    untraced_ns, _ = run_pass(workload, ops, outcomes)
    tracer = tr.Tracer()
    with tracer.installed():
        if workload.trace_setup:
            tracer.op = "setup"
            pool = workload.setup(seed)
        traced_ns, _ = run_pass(workload, pool * workload.trace_passes, outcomes,
                                tracer, workload.run_traced)
    children = workload.child_results
    stats = [tr.aggregate(tracer.spans)] + [tr.aggregate(child["spans"]) for child in children]
    if children:
        import_ms = statistics.median(c["import_ms"] for c in children)
        scipy_loaded = any(c["scipy_loaded"] for c in children)
    if spans_file is not None:
        with open(spans_file, "w", encoding="utf-8") as fh:
            for process, spans in enumerate([tracer.spans] + [c["spans"] for c in children]):
                for span in spans:
                    fh.write(json.dumps([process, *span]) + "\n")
    values = metrics.per_layer_values(tr.merge(stats), len(ops), import_ms, scipy_loaded,
                                      traced_ns / untraced_ns - 1.0)
    attempted = 2 * len(ops)
    return {"metrics": values, "attempted": attempted, "failed": outcomes.failed,
            "wrong": outcomes.wrong, "failed_frac": outcomes.failed / attempted,
            "wrong_frac": outcomes.wrong / attempted, "listed": outcomes.listing(),
            "ops": len(ops)}
