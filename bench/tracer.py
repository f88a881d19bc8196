"""Span tracer that wraps lagidx's public functions from outside the package.

For a traced run only, each target function is replaced by a timing
wrapper in every ``lagidx.*`` module namespace that holds it, the same
way the mutation tests patch functions; ``installed()`` restores the
originals on exit.  Each call records a span (name, parent, op id,
start, end, error flag, note).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


def _maslov_kind(args, kwargs) -> str:
    path = args[0] if args else kwargs["path"]
    if path.kind == "custom":
        return "custom"
    if path.kind.startswith("reparametrized"):
        return "reparametrized"
    return "linear"


# (module, function, span-name suffix from the arguments, note from the result)
TARGETS = [
    ("lagidx.hermitian", "inertia", None, None),
    ("lagidx.hermitian", "kernel_basis", None, None),
    ("lagidx.symplectic", "random_symplectic", None, None),
    ("lagidx.planes", "plane_from_frame", None, None),
    ("lagidx.planes", "graph_plane", None, None),
    ("lagidx.planes", "intersection_dim", None, None),
    ("lagidx.planes", "epsilon_select", None, None),
    ("lagidx.planes", "robin_map", None, None),
    ("lagidx.planes", "transversal_companion", None, None),
    ("lagidx.planes", "transversal_normalization", None, None),
    ("lagidx.relations", "difference", None, None),
    ("lagidx.relations", "decompose", None, None),
    ("lagidx.indices", "omega_form", None, None),
    ("lagidx.indices", "duistermaat_omega", None, None),
    ("lagidx.indices", "duistermaat_robin", None, None),
    ("lagidx.indices", "duistermaat_reduce", None, None),
    ("lagidx.indices", "kashiwara", None, None),
    ("lagidx.maslov", "minimal_path", None, None),
    ("lagidx.maslov", "maslov_index", None, None),
    ("lagidx.maslov", "find_crossings", _maslov_kind, len),
    ("lagidx.maslov", "crossing_form", None, None),
    ("lagidx.document", "load", None, None),
    ("lagidx.cli", "main", None, None),
    ("lagidx.verify", "run_suites", None, None),
]

# Span fields, by index.
NAME, PARENT, OP, START, END, ERROR, NOTE = range(7)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.op = None
        self.wrapper_calls = 0
        # Set while the benchmark checks an answer, so the oracle's own
        # calls into lagidx are not counted as the op's work.
        self.paused = False
        self._stack: list = []

    def _wrap(self, name: str, fn, suffix, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.wrapper_calls += 1
            if self.paused:
                return fn(*args, **kwargs)
            span = [name if suffix is None else f"{name}.{suffix(args, kwargs)}",
                    self._stack[-1] if self._stack else -1, self.op,
                    time.perf_counter_ns(), 0, False, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                self._stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in every loaded lagidx module; restore on exit."""
        patched = []
        try:
            for module_name, fn_name, suffix, note in self.targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name[len('lagidx.'):]}.{fn_name}",
                                     original, suffix, note)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "lagidx" or mod_name.startswith("lagidx.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def base_name(span_name: str) -> str:
    """Function name of a span, without a kind suffix."""
    if span_name.startswith("maslov.find_crossings."):
        return "maslov.find_crossings"
    return span_name


def aggregate(spans: list) -> dict:
    """Per span name: calls, errors, self time (ns), and the number of
    direct children of each child name."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    stats: dict = {}
    for i, span in enumerate(spans):
        for name in {span[NAME], base_name(span[NAME])}:
            s = stats.setdefault(name, {"calls": 0, "errors": 0, "self_ns": 0, "notes": 0,
                                        "children": {}})
            s["calls"] += 1
            s["errors"] += int(span[ERROR])
            s["self_ns"] += span[END] - span[START] - child_ns[i]
            s["notes"] += span[NOTE] or 0
        if span[PARENT] >= 0:
            children = stats[spans[span[PARENT]][NAME]]["children"]
            children[span[NAME]] = children.get(span[NAME], 0) + 1
    return stats


def merge(stats_list: list) -> dict:
    """Sum per-name statistics from several processes."""
    total: dict = {}
    for stats in stats_list:
        for name, s in stats.items():
            t = total.setdefault(name, {"calls": 0, "errors": 0, "self_ns": 0, "notes": 0,
                                        "children": {}})
            for key in ("calls", "errors", "self_ns", "notes"):
                t[key] += s[key]
            for child, count in s["children"].items():
                t["children"][child] = t["children"].get(child, 0) + count
    return total
