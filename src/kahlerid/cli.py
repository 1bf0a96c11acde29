"""Command line interface.

Exit codes: 0 all requested checks pass, 1 an identity or table cell
fails, 2 the model violates a Lie-algebra invariant, 3 the model file
cannot be read or parsed, or the --out file cannot be written.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .models import (
    ModelFormatError,
    ModelValidationError,
    builtin_descriptions,
    resolve_model,
    validate_model,
)
from .verifier import (
    SUITES,
    Workspace,
    bidegree_table_markdown,
    commutator_table_markdown,
    emit_bidegree_table,
    emit_commutator_table,
    suite_requests,
    table_requests,
    verify,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_VALIDATION = 2
EXIT_FORMAT = 3


class OutputError(Exception):
    """The --out file cannot be written."""


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise OutputError(f"cannot write {out}: {e.strerror or e}") from e


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   help="built-in model name or path to a JSON model file")
    p.add_argument("--format", choices=("json", "md"), default="json",
                   help="output format (default json)")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlerid",
        description="Verify operator identities on almost complex Lie-algebra models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list built-in models")
    p_models.add_argument("--format", choices=("json", "md"), default="md")
    p_models.add_argument("--out")

    p_val = sub.add_parser("validate", help="check Lie-algebra invariants of a model")
    _add_common(p_val)

    p_ver = sub.add_parser("verify", help="evaluate the identity catalog on a model")
    _add_common(p_ver)
    p_ver.add_argument("--suite", choices=SUITES, default="all",
                       help="which identity groups to run (default all)")
    mode = p_ver.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact rational arithmetic (default)")
    mode.add_argument("--float", dest="float_mode", action="store_true",
                      help="float64 arithmetic with a residual tolerance")
    p_ver.add_argument("--tolerance", type=_tolerance, default=1e-10,
                       help="max residual accepted in --float mode (default 1e-10)")

    p_tab = sub.add_parser(
        "table", help="emit the commutator and bidegree tables (always exact)")
    _add_common(p_tab)
    p_tab.add_argument("--which", choices=("commutator", "bidegree", "both"),
                       default="both")
    return parser


def _cmd_models(args) -> int:
    descs = builtin_descriptions()
    if args.format == "json":
        text = json.dumps({"models": descs}, indent=2) + "\n"
    else:
        lines = ["| model | description |", "|---|---|"]
        for name, desc in descs.items():
            lines.append(f"| {name} | {desc} |")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    model = resolve_model(args.model)
    report = validate_model(model)
    if args.format == "json":
        payload = {
            "model": report.model,
            "ok": report.ok,
            "failures": [
                {"invariant": f.invariant, "indices": list(f.indices),
                 "detail": f.detail}
                for f in report.failures
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = report.summary() + "\n"
    _emit(text, args.out)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_verify(args) -> int:
    model = resolve_model(args.model)
    mode = "float" if args.float_mode else "exact"
    ws = Workspace(model, mode=mode, reads=suite_requests(model.n, args.suite, mode))
    report = verify(ws, suite=args.suite, tolerance=args.tolerance)
    text = report.to_json() if args.format == "json" else report.to_markdown()
    _emit(text, args.out)
    return EXIT_OK if report.ok() else EXIT_IDENTITY


def _cmd_table(args) -> int:
    model = resolve_model(args.model)
    # tables are structural: exact arithmetic only.  Both tables are planned
    # together, so a value they share is evaluated once
    ws = Workspace(model, reads=table_requests(args.which))
    parts = {}
    ok = True
    if args.which in ("commutator", "both"):
        parts["commutator"] = emit_commutator_table(ws)
        ok = ok and parts["commutator"]["ok"]
    if args.which in ("bidegree", "both"):
        parts["bidegree"] = emit_bidegree_table(ws)
        ok = ok and parts["bidegree"]["ok"]
    if args.format == "json":
        payload = parts if args.which == "both" else parts[args.which]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        chunks = []
        if "commutator" in parts:
            chunks.append(commutator_table_markdown(parts["commutator"]))
        if "bidegree" in parts:
            chunks.append(bidegree_table_markdown(parts["bidegree"]))
        text = "\n".join(chunks)
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_IDENTITY


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
    except ModelValidationError as e:
        sys.stderr.write(e.report.summary() + "\n")
        return EXIT_VALIDATION
    except (ModelFormatError, OutputError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_FORMAT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
