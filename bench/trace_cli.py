"""Run the assess-opt CLI in this process with a span around each pipeline stage.

Usage: python3 trace_cli.py SPANS.json ARG...   (ARG... as for assess-opt)

The program is not changed: its public stage functions are wrapped from the
outside, at their module attributes, at the names cli imported directly, and
in selection.RUNNERS, and then cli.main runs with the given arguments. Spans
(name, layer metric, start, end, parent) stay in memory and are written to
SPANS.json after main returns, with per-layer counts and the wrapped names that
no longer exist. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, layer metric the span's self time goes to)
TARGETS = [
    ("cli", "load_corpus_dir", "corpus.load_s"),
    ("corpus", "load_corpus_dir", "corpus.load_s"),
    ("corpus", "load_corpus", "corpus.load_s"),
    ("reference", "load_reference_dir", "reference.load_s"),
    ("reference", "load_worldvalues", "reference.load_s"),
    ("reference", "load_thresholds", "reference.load_s"),
    ("reference", "load_mergemap", "reference.load_s"),
    ("gev", "load_profiles", "gev.profiles_s"),
    ("gev", "validate_profiles", "gev.profiles_s"),
    ("gev", "score_corpus", "gev.score_s"),
    ("gev", "write_scored", "gev.write_s"),
    ("selection", "build_sets", "selection.build_sets_s"),
    ("selection", "error_metrics", "selection.errors_s"),
    ("selection", "write_selections", "selection.write_s"),
    ("selection", "write_errors", "selection.write_s"),
    ("report", "average_table", "report.render_s"),
    ("report", "scenario_table", "report.render_s"),
    ("report", "render_report", "report.render_s"),
    ("report", "render_scenario_csv", "report.render_s"),
]
RUNNERS = {
    "scenario1": "selection.scenario1_s",
    "scenario2": "selection.scenario2_s",
    "scenario3": "selection.scenario3_s",
    "exact-A": "selection.exact_a_s",
    "exact-C": "selection.exact_c_s",
}
ROOT = "cli.self_s"

# Work counts taken from a stage's return value, outside its span.
COUNTS = {
    ("cli", "load_corpus_dir"): (
        "corpus.rows", lambda c: len(c.researchers) + len(c.products) + len(c.authorships)),
    ("reference", "load_worldvalues"): (
        "reference.values", lambda thresholds: sum(t.n for t in thresholds.values())),
    ("reference", "load_thresholds"): ("reference.values", len),
    ("gev", "score_corpus"): ("gev.scored", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, metric, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def wrap(self, name: str, metric: str, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, metric, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](result)
            return result

        return traced

    def install(self, cli) -> None:
        for module_name, attr, metric in TARGETS:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"assessopt.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(name, metric, fn, COUNTS.get((module_name, attr))))
        selection = importlib.import_module("assessopt.selection")
        runners = getattr(selection, "RUNNERS", {})
        for tag, metric in RUNNERS.items():
            if tag in runners:
                runners[tag] = self.wrap(f"selection.RUNNERS[{tag}]", metric, runners[tag])
            else:
                self.missing.append(f"selection.RUNNERS[{tag}]")
        cli.main = self.wrap("cli.main", ROOT, cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from assessopt import cli

    tracer = Tracer()
    tracer.install(cli)
    code = cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
