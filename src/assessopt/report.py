"""Tabular rendering of scenario totals, selection-error counts and score averages.

Rendering is a pure function of its inputs: identical inputs produce
byte-identical text. Scores and percentage deltas print with one decimal,
rounded half away from zero; a delta with a zero base renders as "—".
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .corpus import Corpus
from .gev import UDA_NAMES
from .selection import (
    EXACT_FULL,
    EXACT_PROPOSED,
    SCENARIO1,
    SCENARIO2,
    SCENARIO3,
    SCENARIO_TAGS,
    SCORE_SCALE,
    ResearcherErrors,
    Selection,
    SelectionProblem,
)

UNDEFINED = "—"

SCENARIO_CSV_COLUMNS = [
    "uda", "products_due", "s1", "s2", "s3", "delta_12", "delta_23", "delta_13",
]


def round_half_away(x: float, ndigits: int = 1) -> float:
    """Round with ties going away from zero (0.15 -> 0.2, -0.15 -> -0.2)."""
    q = 10 ** ndigits
    value = math.copysign(math.floor(abs(x) * q + 0.5), x) / q
    return value + 0.0  # normalize -0.0


def pct_delta(base: float, new: float) -> float | None:
    """Percentage change from base to new; undefined for a zero base."""
    if base == 0:
        return None
    return (new - base) / base * 100.0


def _fmt_delta(value: float | None) -> str:
    if value is None:
        return UNDEFINED
    rounded = round_half_away(value, 1)
    if rounded == 0:
        return "0.0%"
    return f"{rounded:+.1f}%"


def delta_strings(s1: float, s2: float, s3: float) -> tuple[str, str, str]:
    """Render the three pairwise deltas between scenario totals.

    The first-to-third delta compounds the two rounded step deltas, the
    convention the published score tables follow; it is undefined whenever
    either step is.
    """
    d12 = pct_delta(s1, s2)
    d23 = pct_delta(s2, s3)
    if d12 is None or d23 is None:
        d13 = None
    else:
        r12 = round_half_away(d12, 1)
        r23 = round_half_away(d23, 1)
        d13 = ((1 + r12 / 100.0) * (1 + r23 / 100.0) - 1) * 100.0
    return _fmt_delta(d12), _fmt_delta(d23), _fmt_delta(d13)


@dataclass(frozen=True)
class ScenarioRow:
    uda: int | None  # None marks the total row
    products_due: int
    s1: float
    s2: float
    s3: float

    @property
    def deltas(self) -> tuple[str, str, str]:
        return delta_strings(self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class ScenarioTable:
    rows: tuple[ScenarioRow, ...]
    total: ScenarioRow


def scenario_table(selections: dict[str, Selection]) -> ScenarioTable | None:
    """Per-area totals of the three scenarios with pairwise deltas, or None
    unless scenarios 1-3 all ran."""
    try:
        s1, s2, s3 = selections[SCENARIO1], selections[SCENARIO2], selections[SCENARIO3]
    except KeyError:
        return None

    rows = []
    for uda in sorted(s1.per_uda_due):
        rows.append(ScenarioRow(
            uda=uda,
            products_due=s1.per_uda_due[uda],
            s1=s1.per_uda.get(uda, 0.0),
            s2=s2.per_uda.get(uda, 0.0),
            s3=s3.per_uda.get(uda, 0.0),
        ))
    total = ScenarioRow(
        uda=None,
        products_due=sum(r.products_due for r in rows),
        s1=s1.total_score,
        s2=s2.total_score,
        s3=s3.total_score,
    )
    return ScenarioTable(rows=tuple(rows), total=total)


@dataclass(frozen=True)
class ErrorTableRow:
    label: str
    products_due: int
    declared_count: int
    inadmissible: int
    nil_declared: int
    overvalued: int
    best_count: int
    nil_best: int
    undervalued: int
    omitted: int


def error_table(
    errors: tuple[ResearcherErrors, ...], corpus: Corpus
) -> tuple[ErrorTableRow, ...]:
    """Aggregate error counts per area plus an institution total row.

    Counts are authorship counts: a co-authored product is counted once per
    researcher whose set holds it.
    """
    due_by_uda: dict[int, int] = {}
    for r in corpus.researchers.values():
        due_by_uda[r.uda] = due_by_uda.get(r.uda, 0) + r.quota

    by_uda: dict[int, list[ResearcherErrors]] = {}
    for e in errors:
        by_uda.setdefault(e.uda, []).append(e)

    def aggregate(label: str, due: int, group: list[ResearcherErrors]) -> ErrorTableRow:
        return ErrorTableRow(
            label=label,
            products_due=due,
            declared_count=sum(e.declared_count for e in group),
            inadmissible=sum(e.inadmissible_in_declared for e in group),
            nil_declared=sum(e.nil_in_declared for e in group),
            overvalued=sum(len(e.overvalued) for e in group),
            best_count=sum(e.best_count for e in group),
            nil_best=sum(e.nil_in_best for e in group),
            undervalued=sum(len(e.undervalued) for e in group),
            omitted=sum(len(e.omitted) for e in group),
        )

    rows = [
        aggregate(str(uda), due_by_uda.get(uda, 0), by_uda[uda])
        for uda in sorted(by_uda)
    ]
    rows.append(aggregate("TOTAL", sum(due_by_uda.values()), list(errors)))
    return tuple(rows)


def share_cell(count: int, base: int) -> str:
    """Render "count (pct%)" against a base set size, or "—" when empty."""
    if base == 0:
        return UNDEFINED if count == 0 else f"{count} ({UNDEFINED})"
    pct = round_half_away(count / base * 100.0, 1)
    return f"{count} ({pct:.1f}%)"


@dataclass(frozen=True)
class AverageScoreTable:
    """Mean scores of the declared and best picks, for all products and for
    the definite-score subset."""

    declared_mean_all: float | None
    best_mean_all: float | None
    declared_mean_definite: float | None
    best_mean_definite: float | None


def average_table(problem: SelectionProblem) -> AverageScoreTable:
    def mean(pairs: list[tuple[str, str]], definite_only: bool) -> float | None:
        total = 0
        count = 0
        for pair in pairs:
            if definite_only and not problem.scored[pair].definite:
                continue
            total += problem.units[pair]
            count += 1
        return None if count == 0 else total / count / SCORE_SCALE

    sets = problem.portfolios
    declared = [(rid, pid) for rid, p in sets.items() for pid in p.declared_pick]
    best = [(rid, pid) for rid, p in sets.items() for pid in p.best_pick]
    return AverageScoreTable(
        declared_mean_all=mean(declared, False),
        best_mean_all=mean(best, False),
        declared_mean_definite=mean(declared, True),
        best_mean_definite=mean(best, True),
    )


# --- renderers ---------------------------------------------------------------

def _fmt_score(x: float) -> str:
    return f"{round_half_away(x, 1):.1f}"


def _fmt_mean(x: float | None) -> str:
    return UNDEFINED if x is None else f"{x:.2f}"


def _uda_label(uda: int) -> str:
    name = UDA_NAMES.get(uda)
    return f"{uda} - {name}" if name else str(uda)


def render_scenario_markdown(table: ScenarioTable) -> str:
    lines = [
        "| Area | Products due | Scen. 1 | Scen. 2 | Scen. 3 | 1 vs 2 | 2 vs 3 | 1 vs 3 |",
        "| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for row in list(table.rows) + [table.total]:
        label = "Total" if row.uda is None else _uda_label(row.uda)
        d12, d23, d13 = row.deltas
        lines.append(
            f"| {label} | {row.products_due} | {_fmt_score(row.s1)} | {_fmt_score(row.s2)} "
            f"| {_fmt_score(row.s3)} | {d12} | {d23} | {d13} |"
        )
    return "\n".join(lines) + "\n"


def render_scenario_csv(table: ScenarioTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCENARIO_CSV_COLUMNS)
    for row in list(table.rows) + [table.total]:
        d12, d23, d13 = row.deltas
        writer.writerow([
            "TOTAL" if row.uda is None else row.uda,
            row.products_due,
            _fmt_score(row.s1), _fmt_score(row.s2), _fmt_score(row.s3),
            d12, d23, d13,
        ])
    return buffer.getvalue()


def render_error_markdown(rows: tuple[ErrorTableRow, ...]) -> str:
    lines = [
        "| Area | Products due | Declared picks | Of which inadmissible | Of which nil score "
        "| Of which over-valued | Best picks | Of which nil score | Of which under-valued "
        "| Of which omitted |",
        "| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for row in rows:
        label = "Total" if row.label == "TOTAL" else _uda_label(int(row.label))
        lines.append(
            f"| {label} | {row.products_due} | {row.declared_count} | {row.inadmissible} "
            f"| {row.nil_declared} | {share_cell(row.overvalued, row.declared_count)} "
            f"| {row.best_count} | {row.nil_best} "
            f"| {share_cell(row.undervalued, row.best_count)} "
            f"| {share_cell(row.omitted, row.best_count)} |"
        )
    return "\n".join(lines) + "\n"


def render_average_markdown(table: AverageScoreTable) -> str:
    def family(declared: float | None, best: float | None) -> tuple[str, str, str, str]:
        if declared is None or best is None:
            return _fmt_mean(declared), _fmt_mean(best), UNDEFINED, UNDEFINED
        diff = best - declared
        if declared == 0:
            pct = UNDEFINED
        else:
            pct = f"{round_half_away(diff / declared * 100.0, 0):+.0f}%"
        return _fmt_mean(declared), _fmt_mean(best), f"{diff:.2f}", pct

    all_d, all_e, all_diff, all_pct = family(table.declared_mean_all, table.best_mean_all)
    def_d, def_e, def_diff, def_pct = family(
        table.declared_mean_definite, table.best_mean_definite
    )
    lines = [
        "| | All products | Definite score only |",
        "| --- | ---: | ---: |",
        f"| Mean score, declared picks | {all_d} | {def_d} |",
        f"| Mean score, best picks | {all_e} | {def_e} |",
        f"| Difference | {all_diff} | {def_diff} |",
        f"| Increase | {all_pct} | {def_pct} |",
    ]
    return "\n".join(lines) + "\n"


def render_totals_markdown(selections: dict[str, Selection]) -> str:
    labels = {
        SCENARIO1: "Scenario 1 (declared priorities)",
        SCENARIO2: "Scenario 2 (best scores, proposed products)",
        SCENARIO3: "Scenario 3 (best scores, full pool)",
        EXACT_PROPOSED: "Exact optimum, proposed products",
        EXACT_FULL: "Exact optimum, full pool",
    }
    lines = ["| Selection | Total score |", "| --- | ---: |"]
    for tag in SCENARIO_TAGS:
        if tag in selections:
            lines.append(f"| {labels[tag]} | {_fmt_score(selections[tag].total_score)} |")
    return "\n".join(lines) + "\n"


def render_report(
    corpus: Corpus,
    selections: dict[str, Selection],
    errors: tuple[ResearcherErrors, ...],
    averages: AverageScoreTable,
    table: ScenarioTable | None,
) -> str:
    """Assemble the full markdown report; table is the scenario table, or
    None when scenarios 1-3 did not all run."""
    parts = ["# Product selection report", ""]
    parts += ["## Selection totals", "", render_totals_markdown(selections).rstrip("\n"), ""]
    if table is not None:
        parts += ["## Scenario comparison by area", "",
                  render_scenario_markdown(table).rstrip("\n"), ""]
    parts += ["## Selection errors", "",
              render_error_markdown(error_table(errors, corpus)).rstrip("\n"), ""]
    parts += ["## Average scores of declared vs best picks", "",
              render_average_markdown(averages).rstrip("\n"), ""]
    return "\n".join(parts)
