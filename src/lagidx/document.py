"""Named-object interchange documents.

A document is a JSON text with a schema version and a mapping of unique
names to typed objects (hermitian, frame, plane, symplectic, path).
Complex scalars are stored as two-element [re, im] arrays, so the format
is diffable and language neutral.  Loading validates every entry; saving
re-serializes the raw structure, so documents produced by this module
round-trip bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .hermitian import DEFAULT_TOL, TolerancePolicy, as_hermitian
from .maslov import PiecewiseLinearPath, graph_segment, scaled_projector_path
from .planes import LagrangianPlane, plane_from_frame, validate_frame
from .symplectic import is_symplectic

SCHEMA_VERSION = "1"

OBJECT_TYPES = ("hermitian", "frame", "plane", "symplectic", "path")


def encode_matrix(m) -> list:
    """Nested [re, im] representation of a complex matrix."""
    a = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def decode_matrix(data, what: str = "matrix") -> np.ndarray:
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: malformed entries") from exc
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValidationError(f"{what}: expected rows of [re, im] pairs, got shape {a.shape}")
    if any(isinstance(v, bool) for row in data for pair in row for v in pair):
        raise ValidationError(f"{what}: entries must be numbers, not booleans")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what}: non-finite entries")
    return a[..., 0] + 1j * a[..., 1]


class Document:
    """Parsed interchange document with typed accessors."""

    def __init__(self, raw: dict, tol: TolerancePolicy = DEFAULT_TOL):
        self.raw = raw
        self.tol = tol
        self._validate()

    @property
    def objects(self) -> dict:
        return self.raw["objects"]

    def names(self, type_filter: str | None = None) -> list[str]:
        return [name for name, entry in self.objects.items()
                if type_filter is None or entry.get("type") == type_filter]

    def _validate(self) -> None:
        if not isinstance(self.raw, dict):
            raise ValidationError("document root must be an object")
        if self.raw.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {self.raw.get('schema_version')!r}")
        objects = self.raw.get("objects")
        if not isinstance(objects, dict):
            raise ValidationError("document needs an 'objects' mapping")
        for name, entry in objects.items():
            if not isinstance(entry, dict):
                raise ValidationError(f"object {name!r} must be a JSON object")
            if entry.get("type") not in OBJECT_TYPES:
                raise ValidationError(f"object {name!r} has unknown type {entry.get('type')!r}")
            self._build(name)

    def _entry(self, name: str, expect: str) -> dict:
        if name not in self.objects:
            raise ValidationError(f"document has no object named {name!r}")
        entry = self.objects[name]
        if entry["type"] != expect:
            raise ValidationError(f"object {name!r} has type {entry['type']!r}, expected {expect!r}")
        return entry

    def _build(self, name: str):
        entry = self.objects[name]
        kind = entry["type"]
        if kind == "hermitian":
            return self.hermitian(name)
        if kind == "frame":
            return self.frame(name)
        if kind == "plane":
            return self.plane(name)
        if kind == "symplectic":
            return self.symplectic(name)
        return self.path(name)

    def hermitian(self, name: str) -> np.ndarray:
        entry = self._entry(name, "hermitian")
        return as_hermitian(decode_matrix(entry.get("entries"), name), self.tol, name)

    def frame(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        entry = self._entry(name, "frame")
        x = decode_matrix(entry.get("x"), f"{name}.x")
        y = decode_matrix(entry.get("y"), f"{name}.y")
        return validate_frame(x, y, self.tol)

    def plane(self, name: str) -> LagrangianPlane:
        entry = self._entry(name, "plane")
        x = decode_matrix(entry.get("x"), f"{name}.x")
        y = decode_matrix(entry.get("y"), f"{name}.y")
        return plane_from_frame(x, y, self.tol)

    def symplectic(self, name: str) -> np.ndarray:
        entry = self._entry(name, "symplectic")
        m = decode_matrix(entry.get("matrix"), name)
        if not is_symplectic(m, self.tol):
            raise ValidationError(f"object {name!r} is not symplectic at the working tolerance")
        return m

    def path(self, name: str):
        entry = self._entry(name, "path")
        kind = entry.get("kind")
        if kind == "graph_segment":
            return graph_segment(decode_matrix(entry.get("a"), f"{name}.a"),
                                 decode_matrix(entry.get("b"), f"{name}.b"), self.tol)
        if kind == "scaled_projector":
            return scaled_projector_path(decode_matrix(entry.get("q"), f"{name}.q"), self.tol)
        if kind == "custom":
            return self._custom_path(name, entry)
        raise ValidationError(f"path {name!r} has unknown kind {kind!r}")

    def _custom_path(self, name: str, entry: dict):
        grid = entry.get("grid")
        frames = entry.get("frames")
        if not isinstance(grid, list) or not isinstance(frames, list) or len(grid) != len(frames):
            raise ValidationError(f"custom path {name!r} needs matching 'grid' and 'frames' lists")
        if not all(isinstance(t, (int, float)) and not isinstance(t, bool) and 0.0 <= t <= 1.0
                   for t in grid):
            raise ValidationError(f"custom path {name!r} grid must hold numbers in [0, 1]")
        ts = np.asarray(grid, dtype=float)
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or not np.all(np.diff(ts) > 0):
            raise ValidationError(f"custom path {name!r} grid must increase from 0.0 to 1.0")
        xs, ys = [], []
        for i, f in enumerate(frames):
            if not isinstance(f, dict):
                raise ValidationError(f"{name}.frames[{i}] must be a JSON object")
            x = decode_matrix(f.get("x"), f"{name}.frames[{i}].x")
            y = decode_matrix(f.get("y"), f"{name}.frames[{i}].y")
            validate_frame(x, y, self.tol)
            if xs and x.shape != xs[0].shape:
                raise ValidationError(f"{name}.frames[{i}] has shape {x.shape}, expected {xs[0].shape}")
            xs.append(x)
            ys.append(y)
        path = PiecewiseLinearPath.through(ts, xs, ys)
        # On a piece X*Y - Y*X = w(1 - w)(P - P*) with P = X_k* Y_k+1 - Y_k* X_k+1,
        # so the midpoint frame decides whether the whole piece is Lagrangian.
        for k, (lo, hi, *_) in enumerate(path.pieces()):
            try:
                validate_frame(*path.frame_at(0.5 * (lo + hi)), self.tol)
            except ValidationError as exc:
                raise ValidationError(f"custom path {name!r} between knots {k} and {k + 1}: {exc}") from exc
        return path


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValidationError(f"duplicate object name {key!r}")
        seen[key] = value
    return seen


def loads(text: str, tol: TolerancePolicy = DEFAULT_TOL) -> Document:
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"document is not valid JSON: {exc}") from exc
    return Document(raw, tol)


def load(path: str, tol: TolerancePolicy = DEFAULT_TOL) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), tol)


def dumps(doc: Document | dict) -> str:
    raw = doc.raw if isinstance(doc, Document) else doc
    return json.dumps(raw, indent=2) + "\n"


def save(doc: Document | dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def hermitian_entry(m) -> dict:
    return {"type": "hermitian", "entries": encode_matrix(m)}


def plane_entry(plane: LagrangianPlane) -> dict:
    return {"type": "plane", "x": encode_matrix(plane.x), "y": encode_matrix(plane.y)}


def new_document(objects: dict, info: dict | None = None) -> dict:
    raw = {"schema_version": SCHEMA_VERSION, "objects": objects}
    if info:
        raw["info"] = info
    return raw
