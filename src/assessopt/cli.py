"""Command-line front end wiring ingestion, scoring, simulation and reporting.

Exit codes, one exception type each: 0 success; 1 ValidationError (integrity
violations, missing distributions, peer-review-only areas); 2 ParseError or
OSError (IO or parse failure), or an unknown ASSESS_OPT_LOG level. Set
ASSESS_OPT_LOG=DEBUG|INFO|... for diagnostics on stderr. Reruns on identical
inputs produce byte-identical output files.

Each command is a short process, so it imports only what it runs: --help and
usage errors load only this module and errors, build-dist adds reference and
corpus, the others gev; selection and report load only where they run, matching
only for an exact engine, and logging only when ASSESS_OPT_LOG is set.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .errors import Log, ParseError, ValidationError

log = Log("assessopt")

# The --scenarios tokens, in selection.SCENARIO_TAGS order.
SCENARIO_FLAGS = ("1", "2", "3", "exact-A", "exact-C")


def _parse_window(text: str) -> tuple[int, int]:
    try:
        y0, y1 = text.split(":")
        window = (int(y0), int(y1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like 2004:2010, got {text!r}"
        ) from None
    if not all(1000 <= year <= 9999 for year in window):
        raise argparse.ArgumentTypeError(f"window years must lie in 1000-9999, got {text!r}")
    if window[0] > window[1]:
        raise argparse.ArgumentTypeError(f"window {text!r} is reversed")
    return window


def _parse_scenarios(text: str) -> list[str]:
    tokens = []
    for token in text.split(","):
        token = token.strip()
        if token not in SCENARIO_FLAGS:
            raise argparse.ArgumentTypeError(
                f"unknown scenario {token!r}; pick from {', '.join(SCENARIO_FLAGS)}"
            )
        if token not in tokens:
            tokens.append(token)
    return tokens


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="directory with the three corpus CSVs")
    parser.add_argument("--profiles", required=True, help="panel profile pack (JSON)")
    parser.add_argument("--ref", required=True,
                        help="directory with worldvalues.csv/thresholds.csv and mergemap.csv")
    parser.add_argument("--window", type=_parse_window,  # None: gev.DEFAULT_WINDOW
                        help="evaluation window, e.g. 2004:2010")


def load_corpus_dir(directory):
    """corpus.load_corpus_dir, with corpus loaded only once a command reads one."""
    from . import corpus
    return corpus.load_corpus_dir(directory)


def _write(output, write, *values) -> None:
    """write(*values, output); an OSError names output and what is wrong with it."""
    try:
        write(*values, output)
    except OSError as exc:
        path, what = Path(exc.filename or output), exc.strerror.lower()
        if isinstance(exc, (FileExistsError, NotADirectoryError)):  # a file on the way
            path = next((part for part in (path, *path.parents) if part.is_file()), path)
            what = "not a directory"
        where = "" if path == Path(output) else f"{path}: "
        raise OSError(f"{output}: {where}{what}") from None


def _load_and_score(args):
    """Load the three inputs and score every authorship: the one path every
    command but build-dist takes, so each runs the same checks."""
    from . import gev, reference
    gc.disable()  # once the modules are loaded: see main
    window = args.window or gev.DEFAULT_WINDOW
    corpus = load_corpus_dir(args.corpus)
    log.info("corpus: %d researchers, %d products, %d authorships",
             len(corpus.researchers), len(corpus.products), len(corpus.authorships))
    profiles = gev.load_profiles(args.profiles)
    problems = gev.validate_profiles(profiles, window)
    if problems:
        raise ValidationError([f"{args.profiles}: {problem}" for problem in problems])
    library = reference.load_reference_dir(args.ref)
    log.info("reference: %d distributions, %d merge-map entries",
             len(library.thresholds), len(library.merge_map))
    return corpus, gev.score_corpus(corpus, profiles, library, window)


def _run_pipeline(args, tokens: list[str]):
    from . import selection
    problem = selection.build_sets(*_load_and_score(args))
    log.info("%d active researchers; eligible pairs: pool A %d, pool C %d",
             len(problem.quota), sum(map(len, problem.pool_a.entries.values())),
             sum(map(len, problem.pool_c.entries.values())))
    errors = selection.error_metrics(problem)
    selections = {}
    for token in tokens:
        tag = selection.SCENARIO_TAGS[SCENARIO_FLAGS.index(token)]
        selections[tag] = selection.RUNNERS[tag](problem)
        log.info("%s: total score %g", tag, selections[tag].total_score)
    return problem, errors, selections


def cmd_validate(args) -> int:
    _load_and_score(args)
    print("OK: corpus, profiles and reference library are consistent")
    return 0


def cmd_build_dist(args) -> int:
    from . import reference
    gc.disable()  # once the modules are loaded: see main
    thresholds = reference.load_worldvalues(args.worldvalues)
    if not thresholds:
        raise ParseError("no data rows after the header", file=args.worldvalues)
    _write(args.output, reference.write_thresholds, thresholds)
    print(f"wrote {len(thresholds)} distributions to {args.output}")
    return 0


def cmd_score(args) -> int:
    from . import gev
    _, scored = _load_and_score(args)
    _write(args.output, gev.write_scored, scored)
    print(f"scored {len(scored)} authorships to {args.output}")
    return 0


def cmd_errors(args) -> int:
    from . import selection
    _, errors, _ = _run_pipeline(args, [])
    _write(args.output, selection.write_errors, errors)
    print(f"wrote error metrics for {len(errors)} researchers to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    """simulate and report: write report.md, plus report.csv when scenarios 1-3
    all ran; simulate also writes scored.csv, selection.csv and errors.csv."""
    from . import corpus, gev, report, selection
    problem, errors, selections = _run_pipeline(args, args.scenarios)
    table = report.scenario_table(problem, selections)

    def write(outdir: Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.md").write_text(
            report.render_report(problem, selections, errors, table), encoding="utf-8")
        if table is not None:
            corpus.write_rows(outdir / "report.csv", report.SCENARIO_CSV_COLUMNS,
                              report.render_scenario_csv(table))
        if args.command == "simulate":
            gev.write_scored(problem.scored, outdir / "scored.csv")
            selection.write_selections(problem, selections, outdir / "selection.csv")
            selection.write_errors(errors, outdir / "errors.csv")

    outdir = Path(args.output)
    _write(outdir, write)
    if args.command == "report":
        print(f"report written to {outdir}")
        return 0
    for tag, chosen in selections.items():
        print(f"{tag}: total score {chosen.total_score:g}")
    print(f"outputs in {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assess-opt",
        description="Score research products, quantify selection errors, and "
                    "simulate or optimize the institutional submission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check corpus, profiles and reference data")
    _add_input_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build-dist", help="compute class thresholds from raw world values")
    p.add_argument("--worldvalues", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build_dist)

    p = sub.add_parser("score", help="score every authorship under its panel rules")
    _add_input_args(p)
    p.add_argument("-o", "--output", required=True, help="scored.csv path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("errors", help="write per-researcher selection-error metrics")
    _add_input_args(p)
    p.add_argument("-o", "--output", required=True, help="errors.csv path")
    p.set_defaults(func=cmd_errors)

    for name, text in (("simulate", "run selection scenarios and write all outputs"),
                       ("report", "render the analysis report only")):
        p = sub.add_parser(name, help=text)
        _add_input_args(p)
        p.add_argument("--scenarios", type=_parse_scenarios,
                       default=list(SCENARIO_FLAGS),
                       help="comma list from: 1,2,3,exact-A,exact-C")
        p.add_argument("-o", "--output", required=True, help="output directory")
        p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("ASSESS_OPT_LOG")
    if level:  # until something imports logging, errors.Log drops every record
        import logging
        if not isinstance(logging.getLevelName(level.upper()), int):
            print(f"error: ASSESS_OPT_LOG: unknown level {level!r}", file=sys.stderr)
            return 2
        logging.basicConfig(stream=sys.stderr, level=level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # A run's records hold no reference cycles, so collecting would only rescan them.
    # Each command pauses the collector after its imports: until then it frees the
    # cyclic garbage that they and the parser, dropped here, leave.
    collecting = gc.isenabled()
    try:
        return args.func(args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"validation: {violation}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
