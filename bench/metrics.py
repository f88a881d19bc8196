"""Names and units of the benchmark's metrics, and the per-layer values
computed from traced spans.  BENCHMARK.json lists the same names; the
self-test checks that the two agree."""

from __future__ import annotations

import statistics

from tracer import TARGETS

END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

TRACED = tuple(f"{module[len('lagidx.'):]}.{fn}" for module, fn, _, _ in TARGETS)

CALLS = ("hermitian.inertia", "hermitian.kernel_basis", "planes.plane_from_frame",
         "planes.intersection_dim", "planes.robin_map", "maslov.crossing_form")

SELF_US = (
    "hermitian.inertia", "hermitian.kernel_basis", "symplectic.random_symplectic",
    "planes.plane_from_frame", "planes.intersection_dim", "planes.epsilon_select",
    "planes.robin_map", "planes.transversal_companion", "planes.transversal_normalization",
    "relations.difference", "relations.decompose", "indices.omega_form",
    "indices.duistermaat_omega", "indices.duistermaat_robin", "indices.duistermaat_reduce",
    "indices.kashiwara", "maslov.find_crossings.linear", "maslov.find_crossings.custom",
    "maslov.find_crossings.reparametrized", "maslov.minimal_path",
)

SELF_MS = ("document.load", "cli.main", "verify.run_suites")

# (metric, parent function, child function counted per parent call)
CHILDREN_PER_CALL = (
    ("planes.transversal_companion.draws_per_call", "planes.transversal_companion",
     "planes.graph_plane"),
    ("indices.duistermaat_reduce.companions_per_call", "indices.duistermaat_reduce",
     "planes.transversal_companion"),
)

PER_LAYER = {}
PER_LAYER.update({f"{f}.calls_per_op": ("count", "lower") for f in CALLS})
PER_LAYER.update({f"{f}.self_us_per_op": ("us", "lower") for f in SELF_US})
PER_LAYER.update({f"{f}.self_ms": ("ms", "lower") for f in SELF_MS})
PER_LAYER.update({name: ("count", "lower") for name, _, _ in CHILDREN_PER_CALL})
PER_LAYER["maslov.crossings_per_path"] = ("count", "lower")
PER_LAYER["import.lagidx_ms"] = ("ms", "lower")
PER_LAYER["import.scipy_linalg_loaded"] = ("bool", "lower")
PER_LAYER["trace.overhead_frac"] = ("fraction", "lower")
PER_LAYER.update({f"{f}.errors_per_op": ("count", "lower") for f in TRACED})


def per_layer_values(stats: dict, ops: int, import_ms: float, scipy_loaded: bool,
                     overhead_frac: float) -> dict:
    """Every per-layer metric from aggregated span statistics over ``ops`` ops."""
    empty = {"calls": 0, "errors": 0, "self_ns": 0, "notes": 0, "children": {}}
    get = lambda name: stats.get(name, empty)
    values = {}
    for f in CALLS:
        values[f"{f}.calls_per_op"] = get(f)["calls"] / ops
    for f in SELF_US:
        values[f"{f}.self_us_per_op"] = get(f)["self_ns"] / 1e3 / ops
    for f in SELF_MS:
        values[f"{f}.self_ms"] = get(f)["self_ns"] / 1e6 / ops
    for name, parent, child in CHILDREN_PER_CALL:
        calls = get(parent)["calls"]
        values[name] = get(parent)["children"].get(child, 0) / calls if calls else 0.0
    paths = get("maslov.find_crossings")["calls"]
    values["maslov.crossings_per_path"] = get("maslov.find_crossings")["notes"] / paths if paths else 0.0
    values["import.lagidx_ms"] = import_ms
    values["import.scipy_linalg_loaded"] = float(scipy_loaded)
    values["trace.overhead_frac"] = overhead_frac
    for f in TRACED:
        values[f"{f}.errors_per_op"] = get(f)["errors"] / ops
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def tail(latencies_ms: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above
    it: the eleventh-largest sample.  Returns (value, percentile, samples
    above); with fewer than eleven samples it is the maximum."""
    ordered = sorted(latencies_ms)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def steady_passes(latencies_ms: list, pass_size: int) -> tuple[list, int, int]:
    """Latencies of the fastest half of the passes over the input pool.

    Other tenants of a shared machine slow it down in bursts.  Over
    thousands of ops the eleventh-largest latency records those bursts
    rather than the program's own slow ops; the least-disturbed half of
    the passes, each holding the whole op mix, does not.  Enough passes
    are kept for 44 ops where the run has them, so that the tail has ten
    samples above it and sits at or above their 75th percentile.
    Returns (latencies, passes kept, passes run).
    """
    passes = [latencies_ms[i:i + pass_size] for i in range(0, len(latencies_ms), pass_size)]
    passes.sort(key=sum)
    kept = passes[:max(len(passes) // 2, -(-44 // pass_size), 1)]
    return [x for p in kept for x in p], len(kept), len(passes)


def end_to_end_values(latencies_ms: list, pass_size: int, setup_s: float,
                      peak_rss_mb: float) -> dict:
    steady, _, _ = steady_passes(latencies_ms, pass_size)
    tail_ms, _, _ = tail(steady)
    values = {
        "ops_per_s": len(latencies_ms) / (sum(latencies_ms) / 1e3),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
