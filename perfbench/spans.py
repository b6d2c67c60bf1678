"""In-memory spans around the public functions of each imog layer.

Each wrapper replaces the module attribute that the caller looks up at
call time (`imog.cli.parse_file`, `imog.parser.tokenize`, the
`imog.trace` names that `check_model` and `roadmap_scaffold` import
inside their bodies), so the program itself is left unchanged. A span
records its name, start, end, parent span and the command it belongs
to; counts are taken from each call's arguments and result after the
span has closed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _tokens(result, args):
    return {"lexer.tokens": len(result[0])}


def _parsed(result, args):
    model = result.model
    if model is None:
        return {}
    return {"parser.elements": len(model.elements), "parser.relations": len(model.relations)}


def _diagnostics(result, args):
    return {"resolve.diagnostics": len(result)}


def _entries(result, args):
    return {"trace.effective_requirements.entries": len(result)}


def _groups(result, args):
    return {"trace.conflict_groups": len(result)}


def _counted(result, args):
    return {"variability.count.configs": result}


def _enumerated(result, args):
    return {"variability.enumerate.returned": len(result)}


def _printed(result, args):
    return {"printer.bytes_out": len(result.encode())}


def _exported(result, args):
    return {"views.bytes_out": len(result.encode())}


def _saved(result, args):
    store, entries = args[0], args[1]
    format_entry = sys.modules["imog.knowledge"].format_entry
    return {
        "knowledge.save.bytes_written": os.path.getsize(store),
        "knowledge.save.bytes_new": sum(len(format_entry(e)) + 1 for e in entries),
    }


# (module, attribute its caller looks up, span name, counter)
PATCHES = (
    ("imog.cli", "run", "cli.run", None),
    ("imog.cli", "parse_file", "parser.parse", _parsed),
    ("imog.parser", "tokenize", "lexer.tokenize", _tokens),
    ("imog.cli", "check_model", "resolve.check_model", _diagnostics),
    ("imog.resolve", "resolve", "resolve.resolve", None),
    ("imog.resolve", "validate", "resolve.validate", None),
    ("imog.trace", "effective_requirements", "trace.effective_requirements", _entries),
    ("imog.trace", "find_conflicts", "trace.find_conflicts", _groups),
    ("imog.trace", "conflict_diagnostics", "trace.conflict_diagnostics", None),
    ("imog.trace", "coverage_report", "trace.coverage_report", None),
    ("imog.trace", "impact", "trace.impact", None),
    ("imog.variability", "count_configurations", "variability.count_configurations", _counted),
    ("imog.variability", "enumerate_configurations", "variability.enumerate_configurations", _enumerated),
    ("imog.variability", "dead_features", "variability.dead_features", None),
    ("imog.variability", "propagate", "variability.propagate", None),
    ("imog.cli", "print_model", "printer.print_model", _printed),
    ("imog.views", "filter_view", "views.filter_view", None),
    ("imog.views", "export_graph", "views.export_graph", _exported),
    ("imog.views", "export_requirements_table", "views.export_requirements_table", _exported),
    ("imog.views", "roadmap_scaffold", "views.roadmap_scaffold", _exported),
    ("imog.knowledge", "extract", "knowledge.extract", None),
    ("imog.knowledge", "save", "knowledge.save", _saved),
    ("imog.knowledge", "load", "knowledge.load", None),
    ("imog.knowledge", "query", "knowledge.query", None),
    ("imog.knowledge", "check_kbrefs", "knowledge.check_kbrefs", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in PATCHES)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self.counts: dict[str, float] = defaultdict(float)
        self.tag = ""  # the command that the next spans belong to
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent, self.tag]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(result, args).items():
                    self.counts[key] += value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, counter in PATCHES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """(span name, tag) -> duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (name, start, end, parent, tag), inner in zip(self.spans, covered):
            out[name, tag] += end - start - inner
        return out
