"""Print the ``numpy.linalg`` calls and count-rule decisions per op, over
one pass of a benchmark pool.

Usage (from the root of a checkout):

    python3 scripts/linalg_calls.py --workload triples-small --seed 1

The pool comes from ``bench/workloads.py``, which this script imports and
does not change.  The pool is built first; then every public function of
``numpy.linalg`` is wrapped with a counter, and so is ``hermitian._count``
in its module namespace, and each pool item runs its op once.  Only the
op is counted: input generation and the oracle are not.  An op that
raises a typed ``LagidxError`` counts as an op, with the calls it made
before raising.  Each output line is a function name and its calls per
op, ``count_rule`` standing for ``hermitian._count`` (one call per set of
eigenvalues or singular values decided); the last line gives the number
of ops.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import lagidx  # noqa: E402
import lagidx.hermitian  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The workloads whose ops run in this process.
IN_PROCESS = ("triples-small", "triples-large", "maslov-paths")


def counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_calls(workload, pool) -> Counter:
    """Calls to each ``numpy.linalg`` function, and to the count rule,
    over one pass of the pool."""
    calls = Counter()
    originals = {name: getattr(np.linalg, name) for name in np.linalg.__all__
                 if callable(getattr(np.linalg, name))
                 and not isinstance(getattr(np.linalg, name), type)}
    count_rule = lagidx.hermitian._count
    for name, fn in originals.items():
        setattr(np.linalg, name, counted(calls, name, fn))
    lagidx.hermitian._count = counted(calls, "count_rule", count_rule)
    try:
        for item in pool:
            try:
                workload.run(item)
            except lagidx.LagidxError:
                pass
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)
        lagidx.hermitian._count = count_rule
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=IN_PROCESS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]()
    pool = workload.setup(args.seed)
    calls = count_calls(workload, pool)
    for name in sorted(calls):
        print(f"{name} {calls[name] / len(pool):.2f}")
    print(f"ops {len(pool)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
