"""Command-line entry point.

One linter-style command per analysis; diagnostics go to stderr, payload
to stdout. Exit code 0 means no error-severity diagnostics, 1 means
errors were found, 2 means the invocation itself failed (usage or IO)
or imog hit an internal error, reported as one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import IO, Sequence

from . import knowledge, trace, variability, views
from .diagnostics import Diagnostic, Severity, format_record, format_text, has_errors
from .errors import ImogError
from .model import AbstractionLevel, Model, Perspective
from .parser import parse_file
from .printer import print_model
from .resolve import check_model

DEFAULT_STORE = "./kb.imogkb"

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_USAGE = 2

# what a command reads before its handler runs (`reads`; None: nothing)
_PARSED = "parsed"
_RESOLVED = "resolved"


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # keep streams injectable
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _limit(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand sets its `handler` and what `run` reads for it:
    nothing, a parsed model or a resolved model (`reads`)."""
    parser = _ArgumentParser(prog="imog", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, resolve, validate, find conflicts")
    p_check.set_defaults(handler=_cmd_check, reads=None)
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=("text", "records"), default="text")

    p_vars = sub.add_parser("vars", help="variability analyses")
    p_vars.set_defaults(handler=_cmd_vars, reads=_RESOLVED)
    p_vars.add_argument("file")
    g = p_vars.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", action="store_true")
    g.add_argument("--enumerate", type=_limit, metavar="N")
    g.add_argument("--dead", action="store_true")
    g.add_argument("--select", type=_parse_selection, metavar="id=in,...")

    p_trace = sub.add_parser("trace", help="traceability analyses")
    p_trace.set_defaults(handler=_cmd_trace, reads=_RESOLVED)
    p_trace.add_argument("file")
    g = p_trace.add_mutually_exclusive_group(required=True)
    g.add_argument("--coverage", action="store_true")
    g.add_argument("--impact", metavar="ID")
    g.add_argument("--conflicts", action="store_true")

    p_view = sub.add_parser("view", help="filtered model, re-printed")
    p_view.set_defaults(handler=_cmd_view, reads=_PARSED)
    p_view.add_argument("file")
    p_view.add_argument(
        "--levels",
        nargs="+",
        required=True,
        choices=[l.value for l in AbstractionLevel],
    )
    p_view.add_argument(
        "--perspectives",
        nargs="+",
        required=True,
        choices=[p.value for p in Perspective],
    )
    p_view.add_argument("--out")

    p_export = sub.add_parser("export", help="graph, table or roadmap export")
    p_export.set_defaults(handler=_cmd_export, reads=_PARSED)
    p_export.add_argument("file")
    g = p_export.add_mutually_exclusive_group(required=True)
    g.add_argument("--graph", action="store_true")
    g.add_argument("--reqtable", action="store_true")
    g.add_argument("--roadmap", action="store_true")
    p_export.add_argument("--out")

    p_kb = sub.add_parser("kb", help="knowledge store operations")
    p_kb.add_argument("--store", default=None, help="store path (or $IMOG_KB)")
    kb_sub = p_kb.add_subparsers(dest="kb_command", required=True)
    p_extract = kb_sub.add_parser("extract", help="extract elements into the store")
    p_extract.set_defaults(handler=_cmd_kb_extract, reads=_RESOLVED)
    p_extract.add_argument("file")
    p_extract.add_argument("ids", nargs="+")
    p_query = kb_sub.add_parser("query", help="filter store entries")
    p_query.set_defaults(handler=_cmd_kb_query, reads=None)
    p_query.add_argument("--type")
    p_query.add_argument("--max-year", type=int)
    p_query.add_argument("--property-key")
    p_kb_check = kb_sub.add_parser("check", help="check kbrefs against the store")
    p_kb_check.set_defaults(handler=_cmd_kb_check, reads=_RESOLVED)
    p_kb_check.add_argument("file")

    return parser


def _emit(stream: IO[str], text: str) -> None:
    stream.write(text if text.endswith("\n") or not text else text + "\n")


def _report(
    diags: Sequence[Diagnostic], err: IO[str], fmt: str = "text"
) -> int:
    for d in diags:
        _emit(err, format_record(d) if fmt == "records" else format_text(d))
    return EXIT_ERRORS if has_errors(diags) else EXIT_OK


def _read(args, err: IO[str]) -> Model | None:
    """The model of `args.file` as the command reads it, or None once its
    parse or resolve diagnostics hold an error; reports them either way."""
    result = parse_file(args.file)
    diags = result.diagnostics
    if result.model is not None and args.reads == _RESOLVED:
        # looked up at call time, as check_model looks up its own call, so
        # that a wrapper put on imog.resolve.resolve (perfbench/spans.py)
        # also sees the analyses' resolve step
        from .resolve import resolve

        diags = diags + resolve(result.model)
    return None if _report(diags, err) else result.model


def _payload(args, out: IO[str], text: str) -> None:
    target = getattr(args, "out", None)
    if target:
        knowledge.replace_file(target, text)
    else:
        out.write(text)


def _cmd_check(args, model: None, out: IO[str], err: IO[str]) -> int:
    """Reads its own file: it reports in `--format` and always prints its summary."""
    result = parse_file(args.file)
    diags = result.diagnostics
    if result.model is not None:
        diags = diags + check_model(result.model)
    code = _report(diags, err, args.format)
    counts = {s: 0 for s in Severity}
    for d in diags:
        counts[d.severity] += 1
    _emit(
        out,
        f"{args.file}: {counts[Severity.ERROR]} error(s), "
        f"{counts[Severity.WARNING]} warning(s), {counts[Severity.INFO]} info(s)",
    )
    return code


def _parse_selection(text: str) -> dict[str, bool]:
    decisions: dict[str, bool] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        element_id, sep, value = part.partition("=")
        if not sep or value not in ("in", "out"):
            raise argparse.ArgumentTypeError(
                f"bad selection {part!r}: expected id=in or id=out"
            )
        decisions[element_id] = value == "in"
    return decisions


def _cmd_vars(args, model: Model, out: IO[str], err: IO[str]) -> int:
    if args.count:
        _emit(out, str(variability.count_configurations(model)))
    elif args.enumerate is not None:
        for config in variability.enumerate_configurations(model, args.enumerate):
            _emit(out, variability.format_configuration(model.name, config))
    elif args.dead:
        for element_id in sorted(variability.dead_features(model)):
            _emit(out, element_id)
    else:
        state = variability.propagate(model, args.select)
        _emit(out, "forced-in: " + " ".join(sorted(state.forced_in)))
        _emit(out, "forced-out: " + " ".join(sorted(state.forced_out)))
        _emit(out, "open: " + " ".join(sorted(state.open)))
        if state.conflict is not None:
            _emit(
                out,
                f"conflict: {state.conflict.rule} "
                f"[{' '.join(state.conflict.elements)}]",
            )
    return EXIT_OK


def _cmd_trace(args, model: Model, out: IO[str], err: IO[str]) -> int:
    if args.coverage:
        _emit(out, trace.report_to_text(trace.coverage_report(model)))
        return EXIT_OK
    if args.impact:
        for element_id in sorted(trace.impact(model, args.impact)):
            _emit(out, element_id)
        return EXIT_OK
    return _report(trace.conflict_diagnostics(model), err)


def _cmd_view(args, model: Model, out: IO[str], err: IO[str]) -> int:
    view = views.filter_view(
        model,
        [AbstractionLevel(l) for l in args.levels],
        [Perspective(p) for p in args.perspectives],
    )
    _payload(args, out, print_model(view))
    return EXIT_OK


def _cmd_export(args, model: Model, out: IO[str], err: IO[str]) -> int:
    if args.graph:
        text = views.export_graph(model)
    elif args.reqtable:
        text = views.export_requirements_table(model)
    else:
        text = views.roadmap_scaffold(model)
    _payload(args, out, text)
    return EXIT_OK


def _store_path(args) -> str:
    return args.store or os.environ.get("IMOG_KB", DEFAULT_STORE)


def _cmd_kb_query(args, model: None, out: IO[str], err: IO[str]) -> int:
    entries = knowledge.query(
        _store_path(args),
        type=args.type,
        max_year=args.max_year,
        property_key=args.property_key,
    )
    for entry in entries:
        _emit(out, knowledge.format_entry(entry))
    return EXIT_OK


def _cmd_kb_extract(args, model: Model, out: IO[str], err: IO[str]) -> int:
    result = knowledge.extract(model, args.ids)
    code = _report(result.diagnostics, err)
    knowledge.save(_store_path(args), result.entries)
    for entry in result.entries:
        _emit(out, knowledge.format_entry(entry))
    return code


def _cmd_kb_check(args, model: Model, out: IO[str], err: IO[str]) -> int:
    return _report(knowledge.check_kbrefs(model, _store_path(args)), err)


def run(
    argv: Sequence[str],
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(list(argv))
        model = _read(args, err) if args.reads else None
        if args.reads and model is None:  # its diagnostics held an error
            return EXIT_ERRORS
        return args.handler(args, model, out, err)
    except _UsageError as exc:
        err.write(str(exc).rstrip("\n") + "\n")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ImogError, OSError) as exc:
        err.write(f"imog: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a fault in imog itself: no traceback
        message = " ".join(str(exc).split())
        err.write(f"imog: internal error: {type(exc).__name__}: {message}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
