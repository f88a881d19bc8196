"""Print one stable line per item of the benchmark's triple and Maslov pools.

Usage (from the root of a checkout):

    python3 scripts/pool_digest.py --seeds 1 2 3 4 5 [--pools triples-small maslov-paths]

Each line holds everything the library decided for one pool item, with
floats written as hex so that two checkouts compare bit for bit.  It
starts with ``inputs=``, a sha256 of the item's input frames, so that a
change to the constructors the pool is drawn with (``random_plane``,
``random_symplectic``, ``minimal_path``, ...) shows as a changed line:

* triples: the input frames of the three planes and the graph; the
  omega, robin and reduce reports (value, ``epsilon_used``,
  diagnostics), the closed-form value, the Kashiwara value, the index
  via resolvent differences against the item's graph, the three
  difference frames, the omega value after subtraction and the
  ``decompose`` ``mul_dim``;
* Maslov paths: the input frames of the path (of its base path when
  reparametrized), of the reference plane and of the path's end planes;
  every crossing (t, dim, form inertia) and the index.

A typed ``LagidxError`` prints as its class name and message.  Comparing
two checkouts is then a ``diff`` of their outputs.  The pools come from
``bench/workloads.py``, which this script imports and does not change.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import lagidx  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POOLS = ("triples-small", "triples-large", "maslov-paths")


def stable(value) -> str:
    """Text of a value with every float as hex and every array as hex bytes."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value).tobytes().hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{stable(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(stable(v) for v in value) + "]"
    return repr(value)


def inputs(planes, *arrays) -> str:
    """sha256 of the frames (X, Y) of the planes and of the further arrays."""
    h = hashlib.sha256()
    for a in [*(m for p in planes for m in (p.x, p.y)), *arrays]:
        h.update(np.ascontiguousarray(a).tobytes())
    return "inputs=" + h.hexdigest()


def attempt(op) -> str:
    try:
        return stable(op())
    except lagidx.LagidxError as exc:
        return f"{type(exc).__name__}({exc})"


def report(r: lagidx.IndexReport) -> list:
    return [r.value, r.epsilon_used, r.diagnostics]


def triple_line(item) -> list[str]:
    l1, l2, l3 = item.planes
    diffs = []

    def differences():
        diffs.extend(lagidx.difference(p, item.graph) for p in item.planes)
        return [np.vstack([q.x, q.y]) for q in diffs]

    return [
        inputs([*item.planes, item.graph]),
        "omega=" + attempt(lambda: report(lagidx.duistermaat_omega(l1, l2, l3))),
        "robin=" + attempt(lambda: report(lagidx.duistermaat_robin(l1, l2, l3))),
        "reduce=" + attempt(lambda: report(lagidx.duistermaat_reduce(l1, l2, l3))),
        "closed_form=" + attempt(lambda: lagidx.duistermaat(l1, l2, l3, method="closed_form").value),
        "kashiwara=" + attempt(lambda: lagidx.kashiwara(l1, l2, l3)),
        "resolvent=" + attempt(lambda: lagidx.index_via_resolvent_difference(l1, l2, item.graph)),
        "differences=" + attempt(differences),
        "omega_diff=" + (attempt(lambda: lagidx.duistermaat_omega(*diffs).value)
                         if len(diffs) == 3 else "skipped"),
        "mul_dim=" + attempt(lambda: lagidx.decompose(item.planes[item.decompose_index]).mul_dim),
    ]


def maslov_line(item) -> list[str]:
    def crossings():
        found = lagidx.find_crossings(item.path, item.reference)
        return [[c.t, c.dim, c.form_inertia.as_tuple()] for c in found]

    path = getattr(item.path, "base", item.path)
    return [
        inputs([item.reference, *getattr(item, "ends", ())], path.frames),
        "crossings=" + attempt(crossings),
        "maslov=" + attempt(lambda: lagidx.maslov_index(item.path, item.reference)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pools", nargs="+", choices=POOLS, default=list(POOLS))
    args = parser.parse_args()
    for name in args.pools:
        workload = WORKLOADS[name]()
        line = maslov_line if name == "maslov-paths" else triple_line
        for seed in args.seeds:
            for item in workload.setup(seed):
                tag = f"{name} {item.seed[0]}/{item.seed[1]}"
                print(tag, " ".join(line(item)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
