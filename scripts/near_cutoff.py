"""Near-cutoff triples with a known Duistermaat index, and a per-method scoreboard.

Usage (from the root of a checkout):

    python3 scripts/near_cutoff.py [--seeds 200] [--deltas 1e-5 1e-6 1e-7 1e-8 1e-9 1e-10]

For seed s and width delta, :func:`near_cutoff_triple` builds the image
under ``random_symplectic(3, s)`` of (horizontal, graph(A), vertical),
with A = Q diag(delta, -delta, 1) Q* and Q a random unitary.  Its exact
Duistermaat index is n_-(A) = 1 for every delta > 0, while two
eigenvalues of A sit delta away from the intersection that the count
rule sees below ``rank_rel_tol``.

For each delta the sweep prints one JSON line: per method, over seeds
0 .. N-1, the number of right answers, of silent wrong answers and of
typed ``LagidxError``.  The methods are omega, robin, reduce, and the
Kashiwara signature s read through its correspondence
(n - d12 + d13 - d23 - s) / 2; an odd numerator counts as wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import lagidx  # noqa: E402

EXACT = 1
DELTAS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)


def near_cutoff_triple(seed: int, delta: float) -> tuple:
    """The triple of seed ``seed`` at width ``delta``; its index is 1."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = q @ np.diag([delta, -delta, 1.0]) @ q.conj().T
    s = lagidx.random_symplectic(3, seed)
    planes = (lagidx.horizontal_plane(3), lagidx.graph_plane(a), lagidx.vertical_plane(3))
    return tuple(lagidx.apply_symplectic(s, p) for p in planes)


def kashiwara_index(l1, l2, l3):
    """The Duistermaat index from the Kashiwara signature, or None when
    the correspondence gives no integer."""
    d12, d13, d23 = (lagidx.intersection_dim(a, b) for a, b in ((l1, l2), (l1, l3), (l2, l3)))
    twice = l1.n - d12 + d13 - d23 - lagidx.kashiwara(l1, l2, l3)
    return twice // 2 if twice % 2 == 0 else None


METHODS = {
    "omega": lambda triple: lagidx.duistermaat_omega(*triple).value,
    "robin": lambda triple: lagidx.duistermaat_robin(*triple).value,
    "reduce": lambda triple: lagidx.duistermaat_reduce(*triple).value,
    "kashiwara": lambda triple: kashiwara_index(*triple),
}


def sweep(delta: float, seeds) -> dict:
    """Right, wrong and typed counts per method at one delta."""
    counts = {name: {"right": 0, "wrong": 0, "typed": 0} for name in METHODS}
    for seed in seeds:
        triple = near_cutoff_triple(seed, delta)
        for name, method in METHODS.items():
            try:
                outcome = "right" if method(triple) == EXACT else "wrong"
            except lagidx.LagidxError:
                outcome = "typed"
            counts[name][outcome] += 1
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="run seeds 0 .. N-1")
    parser.add_argument("--deltas", type=float, nargs="+", default=list(DELTAS))
    args = parser.parse_args()
    for delta in args.deltas:
        print(json.dumps({"delta": delta, "seeds": args.seeds, **sweep(delta, range(args.seeds))}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
