"""Command-line front end.

Subcommands: ``index`` (triple indices), ``relation`` (relation calculus),
``maslov`` (path crossings and index), ``verify`` (seeded identity
suites).  Exit codes: 0 success, 2 validation failure, 3 method
disagreement, 4 degenerate path data.  The default tolerance profile can
be overridden with the LAGIDX_TOL_RANK and LAGIDX_TOL_RESIDUAL
environment variables; explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import document as doc
from . import verify as verify_mod
from .errors import (
    DegenerateCrossing,
    EpsilonDisagreement,
    LagidxError,
    UnresolvedCluster,
    ValidationError,
)
from .hermitian import TolerancePolicy
from .indices import duistermaat
from .maslov import find_crossings, index_from_crossings
from .relations import compress, decompose, difference, inverse

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_DEGENERATE = 4

METHOD_FLAGS = {"robin": "robin", "omega": "omega", "reduce": "reduce", "closed-form": "closed_form"}


def _tolerance_from(args) -> TolerancePolicy:
    given = {
        "rank_rel_tol": os.environ.get("LAGIDX_TOL_RANK") if args.tol_rank is None else args.tol_rank,
        "residual_tol": os.environ.get("LAGIDX_TOL_RESIDUAL") if args.tol_residual is None else args.tol_residual,
    }
    return TolerancePolicy(**{name: float(v) for name, v in given.items() if v is not None})


def _add_common(parser):
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="relative rank cutoff (default 1e-9)")
    parser.add_argument("--tol-residual", type=float, default=None,
                        help="residual tolerance (default 1e-8)")
    parser.add_argument("--output", choices=("text", "machine"), default="text")


def _emit(args, payload: dict, text_lines) -> None:
    if args.output == "machine":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_index(args) -> int:
    tol = _tolerance_from(args)
    document = doc.load(args.input, tol)
    planes = [document.plane(name) for name in args.planes]
    method = METHOD_FLAGS[args.method]
    report = duistermaat(*planes, tol=tol, method=method, seed=args.seed, epsilon=args.eps)
    payload = {
        "value": report.value,
        "method": report.method,
        "epsilon": report.epsilon_used,
    }
    lines = [f"value: {report.value}",
             f"method: {report.method}",
             f"epsilon: {report.epsilon_used if report.epsilon_used is not None else '-'}"]
    if args.cross_check:
        others = {}
        for name, key in METHOD_FLAGS.items():
            if key == method:
                continue
            try:
                others[name] = duistermaat(*planes, tol=tol, method=key, seed=args.seed).value
            except ValidationError:
                others[name] = None  # closed form does not apply to non-graph planes
        payload["cross_check"] = others
        agree = all(v in (None, report.value) for v in others.values())
        comparison = " ".join(f"{k}={v if v is not None else 'n/a'}" for k, v in sorted(others.items()))
        lines.append(f"cross-check: {comparison} -> {'agree' if agree else 'DISAGREE'}")
        if not agree:
            _emit(args, payload, lines)
            return EXIT_DISAGREEMENT
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_relation(args) -> int:
    tol = _tolerance_from(args)
    document = doc.load(args.input, tol)
    op = args.op
    result_name = args.result_name
    if op == "difference":
        if len(args.names) != 2:
            raise ValidationError("difference needs two plane names")
        plane = difference(document.plane(args.names[0]), document.plane(args.names[1]), tol)
        out = doc.new_document({result_name: doc.plane_entry(plane)})
    elif op == "inverse":
        if len(args.names) != 1:
            raise ValidationError("inverse needs one plane name")
        plane = inverse(document.plane(args.names[0]))
        out = doc.new_document({result_name: doc.plane_entry(plane)})
    elif op == "decompose":
        if len(args.names) != 1:
            raise ValidationError("decompose needs one plane name")
        parts = decompose(document.plane(args.names[0]), tol)
        out = doc.new_document(
            {f"{result_name}_dom_projector": doc.hermitian_entry(parts.dom_projector),
             f"{result_name}_operator_part": doc.hermitian_entry(parts.operator_part)},
            info={"mul_dim": parts.mul_dim})
    elif op == "compress":
        if len(args.names) != 2:
            raise ValidationError("compress needs a matrix name and a projector name")
        out_matrix = compress(document.hermitian(args.names[0]),
                              document.hermitian(args.names[1]), tol)
        out = doc.new_document({result_name: doc.hermitian_entry(out_matrix)})
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown relation op {op!r}")
    text = doc.dumps(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_maslov(args) -> int:
    tol = _tolerance_from(args)
    document = doc.load(args.input, tol)
    path = document.path(args.path)
    reference = document.plane(args.reference)
    crossings = find_crossings(path, reference, tol)
    value = index_from_crossings(crossings)
    payload = {
        "index": value,
        "crossings": [
            {"t": c.t, "dim": c.dim, "form_inertia": list(c.form_inertia.as_tuple())}
            for c in crossings
        ],
    }
    lines = []
    for c in crossings:
        i = c.form_inertia
        lines.append(f"crossing t={c.t:.12f} dim={c.dim} form_inertia=({i.n_minus},{i.n_zero},{i.n_plus})")
    lines.append(f"maslov index: {value}")
    _emit(args, payload, lines)
    return EXIT_OK


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(v) for v in text.split(",")]
    if not values or any(v < 1 for v in values):
        raise ValidationError(f"bad dimension range {text!r}")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_verify(args) -> int:
    tol = _tolerance_from(args)
    suites = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    n_values = _parse_n_range(args.n)
    reports = verify_mod.run_suites(suites, n_values, args.trials, args.seed, tol)
    payload = {"reports": [r.to_dict() for r in reports]}
    lines = []
    for r in reports:
        status = "ok" if r.ok else f"FAILURES={len(r.failures)}"
        lines.append(f"suite {r.suite}: checks={len(r.checks)} n={r.n_values} "
                     f"trials={r.trials} seed={r.seed} -> {status}")
        for f in r.failures:
            lines.append(f"  failed {f.check} at n={f.n} trial={f.trial}: {f.details}")
            if f.minimized:
                lines.append(f"    minimized to n={f.minimized['n']}: {f.minimized['details']}")
    _emit(args, payload, lines)
    return EXIT_OK if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagidx",
        description="Indices of Lagrangian-plane triples and the identity verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="Duistermaat index of three named planes")
    p_index.add_argument("--input", required=True, help="document file")
    p_index.add_argument("--planes", nargs=3, required=True, metavar=("L1", "L2", "L3"))
    p_index.add_argument("--method", choices=sorted(METHOD_FLAGS), default="omega")
    p_index.add_argument("--eps", type=float, default=None, help="force the Robin-map epsilon")
    p_index.add_argument("--seed", type=int, default=0)
    p_index.add_argument("--cross-check", action="store_true",
                         help="run every method and compare")
    _add_common(p_index)
    p_index.set_defaults(fn=_cmd_index)

    p_rel = sub.add_parser("relation", help="relation calculus on named objects")
    p_rel.add_argument("--input", required=True)
    p_rel.add_argument("--op", choices=("difference", "inverse", "decompose", "compress"),
                       required=True)
    p_rel.add_argument("--names", nargs="+", required=True)
    p_rel.add_argument("--result-name", default="result")
    p_rel.add_argument("--out", default=None, help="write the output document to a file")
    _add_common(p_rel)
    p_rel.set_defaults(fn=_cmd_relation)

    p_mas = sub.add_parser("maslov", help="crossings and Maslov index of a named path")
    p_mas.add_argument("--input", required=True)
    p_mas.add_argument("--path", required=True)
    p_mas.add_argument("--reference", required=True)
    _add_common(p_mas)
    p_mas.set_defaults(fn=_cmd_maslov)

    p_ver = sub.add_parser("verify", help="run identity suites on seeded random data")
    p_ver.add_argument("--suite", default="all",
                       choices=("all", *verify_mod.SUITES))
    p_ver.add_argument("--n", default="1..6", help="dimension range, e.g. 1..6 or 2,4")
    p_ver.add_argument("--trials", type=_positive_int, default=25)
    p_ver.add_argument("--seed", type=int, default=0)
    _add_common(p_ver)
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DegenerateCrossing, UnresolvedCluster) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except EpsilonDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (LagidxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())
