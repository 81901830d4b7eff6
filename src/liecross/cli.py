"""Command line interface.

Every subcommand takes a workspace document and emits a deterministic report
stream: identical inputs and flags produce byte-identical output, whatever
the worker count.  Output is written as it is encoded, in batches of about
BATCH_CHARS characters, so no command builds its whole report as one
string.  Exit codes: 0 success/valid, 1 an axiom or connection failed (or
stdout's reader went away, as under `| head`; no traceback is printed),
2 usage or document problems, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .algebras import (
    validate_action,
    validate_crossed_module,
    validate_lie_algebra,
)
from .errors import (
    BudgetExceededError,
    DocumentError,
    EndpointMismatchError,
    FieldMismatchError,
    FiniteFieldRequiredError,
    InvalidDerivationError,
    InvariantError,
    ShapeMismatchError,
)
from .documents import Workspace, _matrix_doc, parse_workspace
from .groupoid import (
    DEFAULT_ARROW_BUDGET,
    DEFAULT_BUDGET,
    HomGroupoid,
    _class_scans,
    build_hom_groupoid,
    enumerate_derivations,
    enumerate_morphisms,
    homotopy_classes,
)
from .homotopy import homotopy_target, is_f0_derivation, shift_morphism
from .linalg import _rows_text
from .morphisms import validate_crossed_morphism
from .validation import ValidationReport


def _sizes_text(classes: list[list[int]]) -> str:
    return "[" + ",".join(str(len(c)) for c in sorted(classes, key=len)) + "]"


def _report_json(report: ValidationReport) -> dict:
    return {
        "subject": report.subject,
        "ok": report.ok,
        "checks": report.checks,
        "failures": [
            {"check": f.check, "indices": list(f.indices),
             "lhs": str(f.lhs), "rhs": str(f.rhs)}
            for f in report.failures],
    }


# Pieces of output are joined into writes of about this many characters.
# With PYTHONUNBUFFERED set every write to stdout is a system call, and one
# write per piece would make tens of thousands of them.
BATCH_CHARS = 1 << 16

# With indent set, json.dumps takes this encoder's pure-Python path, so the
# pieces of its iterencode join to the bytes json.dumps(indent=2) returns.
_JSON = json.JSONEncoder(indent=2)


def _batches(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces joined into strings of about BATCH_CHARS characters."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH_CHARS:
            yield "".join(batch)
            batch.clear()
            size = 0
    if batch:
        yield "".join(batch)


def _write(pieces: Iterable[str], *writes: Callable[[str], object]) -> None:
    """Pass the pieces to each write, joined about BATCH_CHARS at a time."""
    for text in _batches(pieces):
        for write in writes:
            write(text)


def _emit(args, out, text_lines: list[str], data: dict):
    if args.format == "structured":
        _write(chain(_JSON.iterencode(data), ["\n"]), out.write)
    else:
        _write((line + "\n" for line in text_lines), out.write)


def _module_report(xm) -> ValidationReport:
    report = validate_action(xm.action)
    report.merge(validate_crossed_module(xm))
    return report


def _workspace_reports(ws: Workspace) -> list[ValidationReport]:
    reports = []
    for objects, validate in (
            (ws.algebras, validate_lie_algebra),
            (ws.crossed_modules, _module_report),
            (ws.morphisms, validate_crossed_morphism),
            (ws.derivations, lambda cert: is_f0_derivation(cert.d, cert.base))):
        for name, obj in objects.items():
            report = validate(obj)
            report.subject = name
            reports.append(report)
    return reports


def _cmd_validate(ws: Workspace, args, out) -> int:
    reports = _workspace_reports(ws)
    lines = [line for report in reports for line in report.lines()]
    ok = all(report.ok for report in reports)
    _emit(args, out, lines,
          {"command": "validate", "ok": ok,
           "reports": [_report_json(r) for r in reports]})
    return 0 if ok else 1


def _cmd_enumerate_morphisms(ws: Workspace, args, out) -> int:
    source = ws.require_module(args.source)
    target = ws.require_module(args.target)
    found = enumerate_morphisms(source, target,
                                budget=args.budget, workers=args.workers)
    lines = [f"morphisms={len(found)}"]
    lines += [f"morphism {i}: f1={f.f1} f0={f.f0}"
              for i, f in enumerate(found)]
    _emit(args, out, lines,
          {"command": "enumerate-morphisms", "count": len(found),
           "morphisms": [{"f1": _matrix_doc(f.f1._numbers), "f0": _matrix_doc(f.f0._numbers)}
                         for f in found]})
    return 0


def _cmd_enumerate_derivations(ws: Workspace, args, out) -> int:
    base = ws.require_morphism(args.base)
    found = enumerate_derivations(base, budget=args.budget, workers=args.workers)
    lines = [f"derivations={len(found)}"]
    lines += [f"derivation {i}: d={h.d}"
              for i, h in enumerate(found)]
    _emit(args, out, lines,
          {"command": "enumerate-derivations", "base": args.base,
           "count": len(found),
           "derivations": [{"d": _matrix_doc(h.d._numbers)} for h in found]})
    return 0


def _json_list(items: Iterator[str], indent: str) -> Iterator[str]:
    """Pieces of the JSON list json.dumps(indent=2) writes at indent."""
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    inner = "\n" + indent + "  "
    yield "[" + inner
    yield first
    comma = "," + inner
    for item in items:
        yield comma
        yield item
    yield "\n" + indent + "]"


def _groupoid_document(groupoid: HomGroupoid, classes: list[list[int]]) -> Iterator[str]:
    """Pieces of json.dumps of {"objects", "arrows", "classes"} with indent=2.

    Matrices are encoded from stored rows (the objects' f1 and f0, the
    table's rows column), json.dumps once per distinct rows, so no arrow
    is built; each block, indented to the depth of an entry's keys, is
    joined into every entry that has it.
    """
    block = lru_cache(maxsize=None)(lambda rows: json.dumps(
        _matrix_doc(rows), indent=2).replace("\n", "\n      "))
    arrows = groupoid.arrows
    yield '{\n  "objects": '
    yield from _json_list((f'{{\n      "f1": {block(f.f1._numbers)},\n'
                           f'      "f0": {block(f.f0._numbers)}\n    }}'
                           for f in groupoid.objects), "  ")
    yield ',\n  "arrows": '
    yield from _json_list((f'{{\n      "src": {s},\n      "dst": {t},\n      "d": {d}\n    }}'
                           for s, t, d in zip(arrows.src, arrows.dst,
                                              map(block, arrows.rows))), "  ")
    yield ',\n  "classes": '
    for piece in _JSON.iterencode(classes):
        yield piece.replace("\n", "\n  ")
    yield "\n}"


def _groupoid_lines(groupoid: HomGroupoid, classes: list[list[int]],
                    emit: str | None) -> Iterator[str]:
    """The groupoid command's text report, one piece per line, from stored rows."""
    arrows = groupoid.arrows
    yield (f"objects={len(groupoid.objects)} arrows={len(arrows)} "
           f"classes={len(classes)} sizes={_sizes_text(classes)}\n")
    shown = lru_cache(maxsize=None)(_rows_text)
    for i, f in enumerate(groupoid.objects):
        yield f"object {i}: f1={shown(f.f1._numbers)} f0={shown(f.f0._numbers)}\n"
    for t, (s, u, d) in enumerate(zip(arrows.src, arrows.dst, map(shown, arrows.rows))):
        yield f"arrow {t}: {s} -> {u} d={d}\n"
    if emit:
        yield f"emitted {emit}\n"


class _EmitFailed(Exception):
    """An OSError from the --emit file, kept apart from one from stdout."""


def _emitting(call: Callable) -> Callable:
    """call, with its OSError raised as _EmitFailed."""
    def attempt(*args):
        try:
            return call(*args)
        except OSError as exc:
            raise _EmitFailed(exc) from exc
    return attempt


def _cmd_groupoid(ws: Workspace, args, out) -> int:
    source, target = map(ws.require_module, args.hom)
    groupoid = build_hom_groupoid(source, target, budget=args.budget,
                                  workers=args.workers, arrow_budget=args.arrow_budget)
    classes = homotopy_classes(groupoid)
    structured = args.format == "structured"
    document = chain(_groupoid_document(groupoid, classes), ["\n"])
    if args.emit:
        # The file is opened before anything reaches stdout.  In the
        # structured format one pass writes each batch to the file and stdout.
        try:
            emit = _emitting(open)(args.emit, "w")
            try:
                _write(document, _emitting(emit.write),
                       *([out.write] if structured else []))
            finally:
                _emitting(emit.close)()
        except _EmitFailed as exc:
            print(f"error: cannot write {args.emit}: {exc}", file=out)
            return 2
    elif structured:
        _write(document, out.write)
    if not structured:
        _write(_groupoid_lines(groupoid, classes, args.emit), out.write)
    return 0


def _cmd_classes(ws: Workspace, args, out) -> int:
    source, target = map(ws.require_module, args.hom)
    # One derivation scan per class gives the classes; no arrow is built.
    objects, scans = _class_scans(source, target, args.budget)
    classes = [sorted({j for _, j in reach}) for reach in scans]
    line = (f"objects={len(objects)} classes={len(classes)} "
            f"sizes={_sizes_text(classes)}")
    _emit(args, out, [line],
          {"command": "classes", "objects": len(objects),
           "classes": len(classes),
           "sizes": sorted(len(c) for c in classes)})
    return 0


def _cmd_check_homotopy(ws: Workspace, args, out) -> int:
    f = ws.require_morphism(args.from_)
    g = ws.require_morphism(args.to)
    cert = ws.require_derivation(args.via)
    shifted = shift_morphism(f, cert.d)
    equations_ok = shifted.f0 == g.f0 and shifted.f1 == g.f1
    law = is_f0_derivation(cert.d, f)
    if f.source != g.source or f.target != g.target:  # a usage error
        raise EndpointMismatchError("morphisms do not share endpoints")
    ok = equations_ok and law.ok
    lines = []
    if equations_ok:
        lines.append(f"{args.via} homotopy_equations PASS")
    else:
        side = "g0" if shifted.f0 != g.f0 else "g1"
        lines.append(f"{args.via} homotopy_equations FAIL {side} differs "
                     "from the shifted morphism")
    law.subject = args.via
    lines += law.lines()
    _emit(args, out, lines,
          {"command": "check-homotopy", "from": args.from_, "to": args.to,
           "via": args.via, "connects": ok,
           "equations_ok": equations_ok, "law": _report_json(law)})
    return 0 if ok else 1


def _cmd_target(ws: Workspace, args, out) -> int:
    f = ws.require_morphism(args.from_)
    cert = ws.require_derivation(args.via)
    try:
        g = homotopy_target(f, cert.d)
    except InvalidDerivationError as exc:
        report = exc.report
        report.subject = args.via
        _emit(args, out, report.lines(),
              {"command": "target", "from": args.from_, "via": args.via,
               "ok": False, "law": _report_json(report)})
        return 1
    lines = [f"{args.via} derivation_law PASS",
             f"target: f1={g.f1} f0={g.f0}"]
    _emit(args, out, lines,
          {"command": "target", "from": args.from_, "via": args.via,
           "ok": True,
           "target": {"f1": _matrix_doc(g.f1._numbers), "f0": _matrix_doc(g.f0._numbers)}})
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecross",
        description="Validate, enumerate and compare crossed modules of "
                    "Lie algebras over exact fields.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("document", help="workspace document to load")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="largest candidate space a single scan may walk")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; no effect on output, "
                             "scans run in one thread")
    common.add_argument("--format", choices=("text", "structured"),
                        default="text", help="report stream format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check every axiom of every declared object")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("enumerate-morphisms", parents=[common],
                       help="list all morphisms between two crossed modules")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(handler=_cmd_enumerate_morphisms)

    p = sub.add_parser("enumerate-derivations", parents=[common],
                       help="list all derivations along a morphism")
    p.add_argument("--base", required=True)
    p.set_defaults(handler=_cmd_enumerate_derivations)

    p = sub.add_parser("groupoid", parents=[common],
                       help="build the full homotopy groupoid")
    p.add_argument("--hom", nargs=2, metavar=("SOURCE", "TARGET"),
                   required=True)
    p.add_argument("--emit", help="write the structured groupoid to a file")
    p.add_argument("--arrow-budget", type=int, default=DEFAULT_ARROW_BUDGET,
                   help="largest number of arrows the groupoid may have")
    p.set_defaults(handler=_cmd_groupoid)

    p = sub.add_parser("classes", parents=[common],
                       help="count homotopy classes of morphisms")
    p.add_argument("--hom", nargs=2, metavar=("SOURCE", "TARGET"),
                   required=True)
    p.set_defaults(handler=_cmd_classes)

    p = sub.add_parser("check-homotopy", parents=[common],
                       help="test whether a derivation connects two morphisms")
    p.add_argument("--from", dest="from_", required=True, metavar="FROM")
    p.add_argument("--to", required=True)
    p.add_argument("--via", required=True)
    p.set_defaults(handler=_cmd_check_homotopy)

    p = sub.add_parser("target", parents=[common],
                       help="compute the morphism a derivation shifts onto")
    p.add_argument("--from", dest="from_", required=True, metavar="FROM")
    p.add_argument("--via", required=True)
    p.set_defaults(handler=_cmd_target)
    return parser


def run_command(argv: list[str], out=None) -> int:
    """Run one subcommand; returns the exit code instead of exiting."""
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = Path(args.document).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.document}: {exc}", file=out)
        return 2
    try:
        ws = parse_workspace(text)
        return args.handler(ws, args, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=out)
        return 3
    except InvariantError as exc:
        # An unvalidated input broke an axiom the computation relies on; the
        # report witnesses it.
        print(f"error: {exc}", file=out)
        for line in exc.report.lines():
            print(line, file=out)
        return 1
    except (DocumentError, FiniteFieldRequiredError, EndpointMismatchError,
            ShapeMismatchError, FieldMismatchError) as exc:
        print(f"error: {exc}", file=out)
        return 2


def main():
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull, so that
        # the flush at exit fails no more, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
