"""The four benchmark workloads: seeded inputs, one op, and an oracle.

Each workload builds a fixed pool of inputs from the workload seed
through lagidx's public constructors, runs one op per pool item, and
checks the op's answer against an oracle that does not use the method
under test.  Pools are stratified (dimension, path kind, shared factors)
so that the op mix is the same for every seed and only the random
matrices change; run-to-run spread then reflects the program, not a
different draw of the mix.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import lagidx
from lagidx import document, verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

# Sines of principal angles below this count as a shared direction.
ANGLE_TOL = 1e-6


class CommandFailed(Exception):
    """A CLI child exited with a non-zero code."""


FAILURES = (lagidx.LagidxError, CommandFailed)


class Item:
    """One pool entry: its seed, its inputs and a memo for the oracle."""

    def __init__(self, seed, **inputs):
        self.seed = list(seed)
        self.__dict__.update(inputs)
        self.memo = {}


# --- oracle helpers: plain numpy, independent of lagidx's decision layer ---


def _frame(plane) -> np.ndarray:
    q, _ = np.linalg.qr(np.vstack([plane.x, plane.y]))
    return q


def _sines(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Sines of the principal angles between two orthonormal frames."""
    return np.linalg.svd(z2 - z1 @ (z1.conj().T @ z2), compute_uv=False)


def np_intersection_dim(p, q) -> int:
    return int(np.sum(_sines(_frame(p), _frame(q)) < ANGLE_TOL))


def same_span(z1: np.ndarray, z2: np.ndarray) -> bool:
    q1, _ = np.linalg.qr(z1)
    q2, _ = np.linalg.qr(z2)
    return bool(np.max(_sines(q1, q2)) < ANGLE_TOL)


def np_n_minus(h: np.ndarray) -> int:
    w = np.linalg.eigvalsh((h + h.conj().T) / 2)
    cut = 1e-9 * max(1.0, float(np.max(np.abs(w))))
    return int(np.sum(w < -cut))


def sheared(plane, a: np.ndarray) -> np.ndarray:
    """Frame of {(u, v - A u)}: the difference of a plane and graph(A)."""
    return np.vstack([plane.x, plane.y - a @ plane.x])


def increasing_step(n: int, rng) -> np.ndarray:
    """Positive definite increment, so graph paths cross only upwards."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T / n + 0.2 * np.eye(n)


def smooth_monotone(alpha: float):
    phi = lambda t: (1.0 - alpha) * t + alpha * t * t * (3.0 - 2.0 * t)
    dphi = lambda t: (1.0 - alpha) + 6.0 * alpha * t * (1.0 - t)
    return phi, dphi


# --- input generation -------------------------------------------------------


def sample_plane(n: int, rng):
    """Random plane, with a multivalued part about a quarter of the time.

    Returns the plane and its multivalued dimension by construction.
    """
    if rng.random() < 0.25:
        k = int(rng.integers(1, n + 1))
        return lagidx.random_plane_with_mul(n, k, rng), k
    return lagidx.random_plane(n, rng), 0


def make_triple(seed: int, index: int, n: int, shared: bool) -> Item:
    """Triple plus the graph subtracted from it.

    A shared triple is built from direct sums with a common factor of
    dimension k, on two or all three of the planes, so that its pairwise
    intersections are nontrivial.
    """
    rng = np.random.default_rng([seed, index])
    planes, muls = [], []
    if shared:
        k = int(rng.integers(1, n))
        common, common_mul = sample_plane(k, rng)
        owners = ((0, 1), (0, 2), (1, 2), (0, 1, 2))[int(rng.integers(4))]
        for i in range(3):
            if i in owners:
                rest, rest_mul = sample_plane(n - k, rng)
                planes.append(lagidx.direct_sum_planes(common, rest))
                muls.append(common_mul + rest_mul)
            else:
                plane, mul = sample_plane(n, rng)
                planes.append(plane)
                muls.append(mul)
    else:
        for _ in range(3):
            plane, mul = sample_plane(n, rng)
            planes.append(plane)
            muls.append(mul)
    a = lagidx.random_hermitian(n, rng)
    return Item((seed, index), n=n, planes=planes, muls=muls, a=a,
                graph=lagidx.graph_plane(a),
                robin_seed=int(rng.integers(2 ** 31)),
                reduce_seed=int(rng.integers(2 ** 31)),
                decompose_index=int(rng.integers(3)))


class Workload:
    """Interface shared by the workloads."""

    name = ""
    trace_passes = 1
    # Whether the traced run also traces input generation.
    trace_setup = True
    # Timings and spans reported by traced child processes.
    child_results: list = []

    def setup(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def run_traced(self, item):
        """The op of a traced run; the caller installs the tracer."""
        return self.run(item)

    def check(self, item, result) -> list:
        """Problems found by the oracle; empty when the answer is right."""
        raise NotImplementedError

    def summary(self, result):
        """Deterministic digest of a result, for comparing two runs."""
        return result

    def close(self) -> None:
        pass


class Triples(Workload):
    """omega, robin, reduce and kashiwara on one triple, plus subtraction
    of a graph from all three planes and one decomposition."""

    def __init__(self, name: str, dims, pool_size: int, trace_passes: int):
        self.name = name
        self.dims = dims
        self.pool_size = pool_size
        self.trace_passes = trace_passes

    def setup(self, seed: int) -> list:
        items = []
        for i in range(self.pool_size):
            n = self.dims[i % len(self.dims)]
            shared = n >= 2 and (i // len(self.dims)) % 4 == 0
            items.append(make_triple(seed, i, n, shared))
        return items

    def run(self, item):
        l1, l2, l3 = item.planes
        omega = lagidx.duistermaat_omega(l1, l2, l3).value
        robin = lagidx.duistermaat_robin(l1, l2, l3, seed=item.robin_seed).value
        reduce = lagidx.duistermaat_reduce(l1, l2, l3, seed=item.reduce_seed).value
        signature = lagidx.kashiwara(l1, l2, l3)
        diffs = [lagidx.difference(p, item.graph) for p in item.planes]
        omega_diff = lagidx.duistermaat_omega(*diffs).value
        parts = lagidx.decompose(item.planes[item.decompose_index])
        return omega, robin, reduce, signature, diffs, omega_diff, parts

    def check(self, item, result) -> list:
        omega, robin, reduce, signature, diffs, omega_diff, parts = result
        n = item.n
        problems = []
        if not omega == robin == reduce:
            problems.append(f"omega={omega} robin={robin} reduce={reduce}")
        if not 0 <= omega <= n:
            problems.append(f"index {omega} outside [0, {n}]")
        l1, l2, l3 = item.planes
        d12, d13, d23 = (np_intersection_dim(p, q) for p, q in ((l1, l2), (l1, l3), (l2, l3)))
        expected = n - d12 + d13 - d23 - 2 * omega
        if signature != expected:
            problems.append(f"kashiwara={signature} expected {expected}")
        for i, (p, q) in enumerate(zip(item.planes, diffs)):
            if not same_span(sheared(p, item.a), np.vstack([q.x, q.y])):
                problems.append(f"difference of plane {i + 1} is not the sheared plane")
        if omega_diff != omega:
            problems.append(f"index after subtraction {omega_diff} != {omega}")
        mul = item.muls[item.decompose_index]
        trace = float(np.real(np.trace(parts.dom_projector)))
        if parts.mul_dim != mul or abs(trace - (n - mul)) > 1e-6:
            problems.append(f"decompose mul_dim={parts.mul_dim} trace={trace:.6f}, built with mul_dim={mul}")
        return problems

    def summary(self, result):
        omega, robin, reduce, signature, diffs, omega_diff, parts = result
        frames = [np.vstack([q.x, q.y]).tobytes().hex() for q in diffs]
        return [omega, robin, reduce, signature, omega_diff, parts.mul_dim, frames]


# Kinds and dimension classes of one block of twenty Maslov ops: half
# minimal paths, a fifth custom document paths, the rest segments and
# reparametrized minimal paths; two of twenty at n = 16.
MASLOV_BLOCK = (
    ["minimal"] * 9 + [("minimal", 16)] + ["custom"] * 4
    + ["segment"] * 2 + [("segment", 16)] + ["reparametrized"] * 3
)


def custom_document(n: int, rng) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Document text with a custom graph path through random knots and a
    graph reference plane; returns the text and the matrices behind it."""
    knots = int(rng.integers(1, 4))
    grid = [0.0] + sorted(float(t) for t in rng.uniform(0.1, 0.9, knots)) + [1.0]
    start = lagidx.random_hermitian(n, rng)
    ys = [start]
    for _ in range(len(grid) - 1):
        ys.append(ys[-1] + increasing_step(n, rng) / (len(grid) - 1))
    c = lagidx.random_hermitian(n, rng)
    eye = document.encode_matrix(np.eye(n))
    objects = {
        "path": {"type": "path", "kind": "custom", "grid": grid,
                 "frames": [{"x": eye, "y": document.encode_matrix(y)} for y in ys]},
        "reference": document.plane_entry(lagidx.graph_plane(c)),
    }
    return json.dumps(document.new_document(objects)), start, ys[-1], c


class MaslovPaths(Workload):
    """Maslov index of one path against one reference plane."""

    name = "maslov-paths"

    def __init__(self, pool_size: int = 80):
        self.pool_size = pool_size

    def setup(self, seed: int) -> list:
        items = []
        seen = {}
        for i in range(self.pool_size):
            spec = MASLOV_BLOCK[i % len(MASLOV_BLOCK)]
            kind, n = spec if isinstance(spec, tuple) else (spec, None)
            if n is None:
                n = 1 + seen.get(kind, 0) % 6
                seen[kind] = seen.get(kind, 0) + 1
            items.append(self._make(seed, i, kind, n))
        return items

    @staticmethod
    def _make(seed: int, index: int, kind: str, n: int) -> Item:
        rng = np.random.default_rng([seed, index])
        if kind in ("minimal", "reparametrized"):
            # Generic endpoints are transversal, so the minimal path is
            # regular against any reference.  Endpoints that meet each
            # other inside the reference make every crossing form
            # degenerate, which lagidx rejects by design.
            l0 = lagidx.random_plane(n, rng)
            l1 = lagidx.random_plane(n, rng)
            m, _ = sample_plane(n, rng)
            path = lagidx.minimal_path(l0, l1)
            if kind == "reparametrized":
                path = lagidx.reparametrize(path, *smooth_monotone(float(rng.uniform(0.1, 0.9))))
            return Item((seed, index), kind=kind, n=n, path=path, reference=m, ends=(l0, l1))
        if kind == "segment":
            a = lagidx.random_hermitian(n, rng)
            b = a + increasing_step(n, rng)
            c = lagidx.random_hermitian(n, rng)
            return Item((seed, index), kind=kind, n=n, path=lagidx.graph_segment(a, b),
                        reference=lagidx.graph_plane(c), graphs=(a, b, c))
        text, a, b, c = custom_document(n, rng)
        doc = document.loads(text)
        return Item((seed, index), kind=kind, n=n, path=doc.path("path"),
                    reference=doc.plane("reference"), graphs=(a, b, c))

    def run(self, item):
        return lagidx.maslov_index(item.path, item.reference)

    def expected(self, item) -> int:
        if "value" not in item.memo:
            if item.kind in ("minimal", "reparametrized"):
                value = lagidx.duistermaat_omega(*item.ends, item.reference).value
            else:
                a, b, c = item.graphs
                value = np_n_minus(a - c) - np_n_minus(b - c)
            item.memo["value"] = value
        return item.memo["value"]

    def check(self, item, result) -> list:
        expected = self.expected(item)
        if result != expected:
            return [f"{item.kind} n={item.n}: maslov={result} expected {expected}"]
        return []


def run_child(argv: list) -> subprocess.CompletedProcess:
    """Run a Python child to completion.  It inherits the environment
    bench/run.py set up: pinned BLAS threads and the checkout's sources."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)


class CliCold(Workload):
    """One `python -m lagidx` child per op, rotating through five commands."""

    name = "cli-cold"
    trace_passes = 2
    # Set-up computes the in-process reference answers; only the CLI
    # children are traced.
    trace_setup = False
    VERIFY_SUITE = ("kashiwara", 3, 3)  # suite, largest n, trials

    def setup(self, seed: int) -> list:
        self.dir = OUT_DIR / f"cli-docs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.child_results = []
        return [self._index(seed, 0), self._maslov(seed, 1, "segment"),
                self._maslov(seed, 2, "custom"), self._difference(seed, 3),
                self._verify(seed, 4)]

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))

    def _index(self, seed: int, index: int) -> Item:
        rng = np.random.default_rng([seed, index])
        n = int(rng.integers(2, 5))
        planes = [sample_plane(n, rng)[0] for _ in range(3)]
        text = json.dumps(document.new_document(
            {name: document.plane_entry(p) for name, p in zip("abc", planes)}))
        loaded = [document.loads(text).plane(name) for name in "abc"]
        report = lagidx.duistermaat(*loaded, method="omega", seed=0)
        others = {}
        for flag, method in (("closed-form", "closed_form"), ("reduce", "reduce"), ("robin", "robin")):
            try:
                others[flag] = lagidx.duistermaat(*loaded, method=method, seed=0).value
            except lagidx.ValidationError:
                others[flag] = None
        expected = {"value": report.value, "method": "omega", "epsilon": None,
                    "cross_check": others}
        argv = ["index", "--input", self._write("index.json", text),
                "--planes", "a", "b", "c", "--cross-check", "--output", "machine"]
        return Item((seed, index), command="index", argv=argv, expected=expected)

    def _maslov(self, seed: int, index: int, kind: str) -> Item:
        rng = np.random.default_rng([seed, index])
        n = int(rng.integers(2, 5))
        if kind == "segment":
            a = lagidx.random_hermitian(n, rng)
            b = a + increasing_step(n, rng)
            c = lagidx.random_hermitian(n, rng)
            text = json.dumps(document.new_document({
                "path": {"type": "path", "kind": "graph_segment",
                         "a": document.encode_matrix(a), "b": document.encode_matrix(b)},
                "reference": document.plane_entry(lagidx.graph_plane(c))}))
        else:
            text, a, b, c = custom_document(n, rng)
        doc = document.loads(text)
        crossings = lagidx.find_crossings(doc.path("path"), doc.plane("reference"))
        argv = ["maslov", "--input", self._write(f"maslov-{kind}.json", text),
                "--path", "path", "--reference", "reference", "--output", "machine"]
        return Item((seed, index), command=f"maslov-{kind}", argv=argv,
                    expected=lagidx.index_from_crossings(crossings),
                    crossings=[(c.t, c.dim, list(c.form_inertia.as_tuple())) for c in crossings],
                    oracle=np_n_minus(a - c) - np_n_minus(b - c))

    def _difference(self, seed: int, index: int) -> Item:
        rng = np.random.default_rng([seed, index])
        n = int(rng.integers(2, 5))
        plane, _ = sample_plane(n, rng)
        a = lagidx.random_hermitian(n, rng)
        text = json.dumps(document.new_document(
            {"l": document.plane_entry(plane), "g": document.plane_entry(lagidx.graph_plane(a))}))
        doc = document.loads(text)
        result = lagidx.difference(doc.plane("l"), doc.plane("g"))
        argv = ["relation", "--input", self._write("relation.json", text),
                "--op", "difference", "--names", "l", "g"]
        return Item((seed, index), command="relation-difference", argv=argv,
                    expected=np.vstack([result.x, result.y]), oracle=sheared(plane, a))

    def _verify(self, seed: int, index: int) -> Item:
        suite, top, trials = self.VERIFY_SUITE
        reports = verify.run_suites([suite], range(1, top + 1), trials, seed)
        expected = json.loads(json.dumps({"reports": [r.to_dict() for r in reports]}))
        argv = ["verify", "--suite", suite, "--n", f"1..{top}", "--trials", str(trials),
                "--seed", str(seed), "--output", "machine"]
        return Item((seed, index), command="verify", argv=argv, expected=expected)

    def run(self, item):
        proc = run_child(["-m", "lagidx", *item.argv])
        if proc.returncode != 0:
            raise CommandFailed(f"{item.command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def run_traced(self, item):
        """The same command through the benchmark's traced child, which
        times ``import lagidx``, ``document.load`` and ``cli.main``."""
        result_file = self.dir / f"trace-{len(self.child_results)}.json"
        proc = run_child([str(BENCH / "cli_child.py"), str(result_file), *item.argv])
        self.child_results.append(json.loads(result_file.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            raise CommandFailed(f"{item.command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def check(self, item, result) -> list:
        try:
            out = json.loads(result)
        except json.JSONDecodeError:
            return [f"{item.command}: output is not JSON"]
        if item.command == "index":
            return [] if out == item.expected else [f"index: {out} != in-process {item.expected}"]
        if item.command.startswith("maslov"):
            got = [(c["t"], c["dim"], c["form_inertia"]) for c in out["crossings"]]
            problems = []
            if out["index"] != item.expected or out["index"] != item.oracle:
                problems.append(f"{item.command}: index {out['index']}, in-process "
                                f"{item.expected}, oracle {item.oracle}")
            if len(got) != len(item.crossings) or any(
                    abs(g[0] - e[0]) > 1e-9 or g[1:] != e[1:] for g, e in zip(got, item.crossings)):
                problems.append(f"{item.command}: crossings {got} != in-process {item.crossings}")
            return problems
        if item.command == "verify":
            failures = [f for r in out["reports"] for f in r["failures"]]
            problems = [f"verify: {len(failures)} failures"] if failures else []
            if out != item.expected:
                problems.append("verify: reports differ from the in-process run")
            return problems
        entry = out["objects"]["result"]
        frame = np.vstack([document.decode_matrix(entry["x"]), document.decode_matrix(entry["y"])])
        problems = []
        if not np.allclose(frame, item.expected, atol=1e-12):
            problems.append("relation difference: frame differs from the in-process result")
        if not same_span(frame, item.oracle):
            problems.append("relation difference: result is not the sheared plane")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "triples-small": lambda: Triples("triples-small", (1, 2, 3, 4, 5, 6), 192, 2),
    "triples-large": lambda: Triples("triples-large", (32, 32, 32, 128), 16, 1),
    "maslov-paths": MaslovPaths,
    "cli-cold": CliCold,
}
