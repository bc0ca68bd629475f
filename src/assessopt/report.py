"""Tabular rendering of scenario totals, selection-error counts and score averages.

Rendering is a pure function of its inputs: identical inputs produce
byte-identical text. Scores and percentage deltas print with one decimal,
rounded half away from zero; a delta from a base that is not positive renders
as "—". The scenario and error tables count only the researchers who take
part in a selection.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .corpus import number
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

SCENARIO_CSV_COLUMNS = {
    "uda": str, "products_due": int, "s1": number, "s2": number, "s3": number,
    "delta_12": str, "delta_23": str, "delta_13": str,
}


def round_half_away(x: float, ndigits: int = 1) -> float:
    """Round with ties going away from zero (0.15 -> 0.2, -0.15 -> -0.2)."""
    q = 10 ** ndigits
    value = math.copysign(math.floor(abs(x) * q + 0.5), x) / q
    return value + 0.0  # normalize -0.0


def pct_delta(base: float, new: float) -> float | None:
    """Percentage change from base to new; undefined unless base is positive."""
    if base <= 0:
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


class ScenarioRow(NamedTuple):
    uda: int | None  # None marks the total row
    products_due: int
    s1: float
    s2: float
    s3: float

    @property
    def deltas(self) -> tuple[str, str, str]:
        return delta_strings(self.s1, self.s2, self.s3)


def products_due(problem: SelectionProblem) -> dict[int | None, int]:
    """The active researchers' quotas summed per area, areas ascending, then
    the institution total under None."""
    due: dict[int | None, int] = {}
    for rid, quota in problem.quota.items():
        uda = problem.corpus.researchers[rid].uda
        due[uda] = due.get(uda, 0) + quota
    return {**dict(sorted(due.items())), None: sum(due.values())}


def scenario_table(
    problem: SelectionProblem, selections: dict[str, Selection]
) -> tuple[ScenarioRow, ...] | None:
    """Per-area products due and totals of the three scenarios with pairwise
    deltas, plus an institution total row, or None unless scenarios 1-3 all
    ran."""
    try:
        s1, s2, s3 = selections[SCENARIO1], selections[SCENARIO2], selections[SCENARIO3]
    except KeyError:
        return None

    def total(selection: Selection, uda: int | None) -> float:
        return selection.total_score if uda is None else selection.per_uda.get(uda, 0.0)

    return tuple(ScenarioRow(uda, due, total(s1, uda), total(s2, uda), total(s3, uda))
                 for uda, due in products_due(problem).items())


class ErrorTableRow(NamedTuple):
    uda: int | None  # None marks the total row
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
    errors: tuple[ResearcherErrors, ...], problem: SelectionProblem
) -> tuple[ErrorTableRow, ...]:
    """Aggregate the active researchers' error counts per area, plus an
    institution total row.

    Counts are authorship counts: a co-authored product is counted once per
    researcher whose set holds it.
    """
    active = [e for e in errors if e.researcher_id in problem.quota]
    by_uda: dict[int, list[ResearcherErrors]] = {}
    for e in active:
        by_uda.setdefault(e.uda, []).append(e)
    due = products_due(problem)

    def aggregate(uda: int | None, group: list[ResearcherErrors]) -> ErrorTableRow:
        return ErrorTableRow(
            uda=uda,
            products_due=due[uda],
            declared_count=sum(e.declared_count for e in group),
            inadmissible=sum(e.inadmissible_in_declared for e in group),
            nil_declared=sum(e.nil_in_declared for e in group),
            overvalued=sum(len(e.overvalued) for e in group),
            best_count=sum(e.best_count for e in group),
            nil_best=sum(e.nil_in_best for e in group),
            undervalued=sum(len(e.undervalued) for e in group),
            omitted=sum(len(e.omitted) for e in group),
        )

    rows = [aggregate(uda, by_uda[uda]) for uda in sorted(by_uda)]
    rows.append(aggregate(None, active))
    return tuple(rows)


def share_cell(count: int, base: int) -> str:
    """Render "count (pct%)" against a base set size, or "—" when empty."""
    if base == 0:
        return UNDEFINED if count == 0 else f"{count} ({UNDEFINED})"
    pct = round_half_away(count / base * 100.0, 1)
    return f"{count} ({pct:.1f}%)"


class AverageScoreTable(NamedTuple):
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
            total += problem.units[problem.scored[pair].score]
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


def _area_label(uda: int | None) -> str:
    if uda is None:
        return "Total"
    name = UDA_NAMES.get(uda)
    return f"{uda} - {name}" if name else str(uda)


def _markdown_table(header: str, rows: Iterable[Sequence]) -> str:
    """The literal header line, a rule that right-aligns every column but the
    first, then one line per row of cells."""
    rule = "| --- |" + " ---: |" * (header.count("|") - 2)
    lines = [header, rule] + ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_scenario_markdown(rows: tuple[ScenarioRow, ...]) -> str:
    return _markdown_table(
        "| Area | Products due | Scen. 1 | Scen. 2 | Scen. 3 | 1 vs 2 | 2 vs 3 | 1 vs 3 |",
        ([_area_label(row.uda), row.products_due, _fmt_score(row.s1), _fmt_score(row.s2),
          _fmt_score(row.s3), *row.deltas] for row in rows),
    )


def render_scenario_csv(rows: tuple[ScenarioRow, ...]) -> list[tuple]:
    """The scenario table as rows of SCENARIO_CSV_COLUMNS."""
    return [
        ("TOTAL" if row.uda is None else row.uda, row.products_due,
         _fmt_score(row.s1), _fmt_score(row.s2), _fmt_score(row.s3), *row.deltas)
        for row in rows
    ]


def render_error_markdown(rows: tuple[ErrorTableRow, ...]) -> str:
    return _markdown_table(
        "| Area | Products due | Declared picks | Of which inadmissible | Of which nil score "
        "| Of which over-valued | Best picks | Of which nil score | Of which under-valued "
        "| Of which omitted |",
        ([_area_label(row.uda), row.products_due, row.declared_count, row.inadmissible,
          row.nil_declared, share_cell(row.overvalued, row.declared_count), row.best_count,
          row.nil_best, share_cell(row.undervalued, row.best_count),
          share_cell(row.omitted, row.best_count)] for row in rows),
    )


def render_average_markdown(table: AverageScoreTable) -> str:
    def family(declared: float | None, best: float | None) -> tuple[str, str, str, str]:
        if declared is None or best is None:
            return _fmt_mean(declared), _fmt_mean(best), UNDEFINED, UNDEFINED
        pct = pct_delta(declared, best)
        return (_fmt_mean(declared), _fmt_mean(best), f"{best - declared:.2f}",
                UNDEFINED if pct is None else f"{round_half_away(pct, 0):+.0f}%")

    columns = (family(table.declared_mean_all, table.best_mean_all),
               family(table.declared_mean_definite, table.best_mean_definite))
    labels = ("Mean score, declared picks", "Mean score, best picks", "Difference", "Increase")
    return _markdown_table(
        "| | All products | Definite score only |",
        zip(labels, *columns),
    )


def render_totals_markdown(selections: dict[str, Selection]) -> str:
    labels = {
        SCENARIO1: "Scenario 1 (declared priorities)",
        SCENARIO2: "Scenario 2 (best scores, proposed products)",
        SCENARIO3: "Scenario 3 (best scores, full pool)",
        EXACT_PROPOSED: "Exact optimum, proposed products",
        EXACT_FULL: "Exact optimum, full pool",
    }
    return _markdown_table(
        "| Selection | Total score |",
        ((labels[tag], _fmt_score(selections[tag].total_score))
         for tag in SCENARIO_TAGS if tag in selections),
    )


def render_report(
    problem: SelectionProblem,
    selections: dict[str, Selection],
    errors: tuple[ResearcherErrors, ...],
    table: tuple[ScenarioRow, ...] | None,
) -> str:
    """Assemble the full markdown report; table is the scenario table, or
    None when scenarios 1-3 did not all run."""
    sections = [("Selection totals", render_totals_markdown(selections))]
    if table is not None:
        sections.append(("Scenario comparison by area", render_scenario_markdown(table)))
    sections += [
        ("Selection errors", render_error_markdown(error_table(errors, problem))),
        ("Average scores of declared vs best picks",
         render_average_markdown(average_table(problem))),
    ]
    return "\n".join(
        ["# Product selection report", ""] + [f"## {title}\n\n{text}" for title, text in sections]
    )
