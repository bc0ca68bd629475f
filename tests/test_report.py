"""Delta arithmetic, table aggregation and deterministic rendering."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import pytest

from assessopt import gev
from assessopt.corpus import load_corpus_dir
from assessopt.reference import load_reference_dir
from assessopt.report import (
    AverageScoreTable,
    average_table,
    delta_strings,
    error_table,
    pct_delta,
    products_due,
    render_average_markdown,
    render_error_markdown,
    render_report,
    render_scenario_csv,
    render_scenario_markdown,
    round_half_away,
    scenario_table,
    share_cell,
)
from assessopt.selection import (
    SCENARIO1,
    SCENARIO2,
    SCENARIO3,
    build_sets,
    error_metrics,
    scenario1,
    scenario2,
    scenario3,
)

import support


def test_round_half_away():
    assert round_half_away(0.15) == 0.2
    assert round_half_away(-0.15) == -0.2
    assert round_half_away(25.85) == 25.9
    assert round_half_away(4.974) == 5.0
    assert round_half_away(32.195) == 32.2
    assert round_half_away(-0.04) == 0.0
    assert round_half_away(34.5, 0) == 35.0


def test_published_total_row_deltas():
    assert delta_strings(598.9, 753.9, 791.4) == ("+25.9%", "+5.0%", "+32.2%")


def test_delta_zero_and_negative():
    assert delta_strings(5.0, 5.0, 5.0) == ("0.0%", "0.0%", "0.0%")
    # a drop from the second to the third selection renders with a minus sign
    d12, d23, d13 = delta_strings(19.4, 22.4, 22.2)
    assert d12 == "+15.5%"
    assert d23 == "-0.9%"


def test_delta_zero_base_guard():
    assert delta_strings(0.0, 5.0, 6.0) == ("—", "+20.0%", "—")
    assert pct_delta(0.0, 5.0) is None
    # a negative base would flip the sign: totals -1.0 -> -0.5 -> 1.0 are no drops
    assert delta_strings(-1.0, -0.5, 1.0) == ("—", "—", "—")


def three_scenarios():
    problem = build_sets(*mini_instance())
    return problem, {
        SCENARIO1: scenario1(problem),
        SCENARIO2: scenario2(problem),
        SCENARIO3: scenario3(problem),
    }


def mini_instance():
    corpus = support.corpus(
        [
            support.researcher("R1", uda=3, quota=2),
            support.researcher("R2", uda=5, quota=1),
        ],
        [support.product(f"P{i}", citations=i) for i in range(1, 5)],
        [
            support.authored("R1", "P1", priority=1),
            support.authored("R1", "P2", priority=2),
            support.authored("R2", "P3", priority=1),
            support.authored("R2", "P4"),
        ],
    )
    scored = support.synth_scored(corpus, {
        ("R1", "P1"): 0.5, ("R1", "P2"): 1.0,
        ("R2", "P3"): 0.0, ("R2", "P4"): 0.8,
    })
    return corpus, scored


def test_scenario_table_totals_are_column_sums():
    problem, selections = three_scenarios()
    *rows, total = scenario_table(problem, selections)
    assert [row.uda for row in rows] == [3, 5]
    assert [row.products_due for row in rows] == [2, 1]  # the quotas of R1 and R2
    assert total.uda is None
    assert total.products_due == sum(r.products_due for r in rows)
    for attr in ("s1", "s2", "s3"):
        assert getattr(total, attr) == pytest.approx(sum(getattr(r, attr) for r in rows))


def test_products_due_sums_active_quotas_per_area(tmp_path):
    mini = Path(__file__).parent / "fixtures" / "mini_university"
    root = tmp_path / "in"
    shutil.copytree(mini, root)
    with open(root / "researchers.csv", "a", encoding="utf-8") as fh:
        fh.write("R13,L-ANT/01,10,3\n")  # peer-review-only
        fh.write("R14,FIS/01,2,0\n")     # quota 0, alone in its area
    corpus = load_corpus_dir(root)
    scored = gev.score_corpus(corpus, gev.load_profiles(root / "profiles.json"),
                              load_reference_dir(root / "ref"), gev.DEFAULT_WINDOW)
    due = products_due(build_sets(corpus, scored))
    assert list(due) == [1, 3, 6, None]
    assert due == {1: 3 + 3 + 2, 3: 3 * 4, 6: 3 * 3 + 2, None: 31}


def test_scenario_table_requires_all_three():
    problem, selections = three_scenarios()
    del selections[SCENARIO2]
    assert scenario_table(problem, selections) is None


def test_share_cell():
    assert share_cell(347, 1030) == "347 (33.7%)"
    assert share_cell(109, 1028) == "109 (10.6%)"
    assert share_cell(0, 0) == "—"


def test_error_table_aggregates_by_area():
    problem = build_sets(*mini_instance())
    rows = error_table(error_metrics(problem), problem)
    assert [r.uda for r in rows] == [3, 5, None]
    total = rows[-1]
    assert total.products_due == 3
    assert total.declared_count == 3
    assert total.overvalued == 1   # R2 declared P3 but P4 is better
    assert total.omitted == 1      # P4 was never proposed
    assert total.nil_declared == 1


def test_average_table():
    corpus, scored = mini_instance()
    table = average_table(build_sets(corpus, scored))
    # declared picks: 0.5, 1.0, 0.0 -> 0.5; best picks: 0.5, 1.0, 0.8 -> ~0.7667
    assert table.declared_mean_all == pytest.approx(0.5)
    assert table.best_mean_all == pytest.approx(2.3 / 3)
    assert table.declared_mean_definite == pytest.approx(0.5)


def test_average_table_empty_family():
    table = AverageScoreTable(None, None, None, None)
    text = render_average_markdown(table)
    assert "—" in text


def test_average_render_percent():
    table = AverageScoreTable(0.5, 0.75, 0.5, 0.75)
    text = render_average_markdown(table)
    assert "+50%" in text
    flat = AverageScoreTable(0.5, 0.5, None, None)
    assert "+0%" in render_average_markdown(flat)
    rising = AverageScoreTable(-1.0, 1.0, None, None)
    assert "| Increase | — |" in render_average_markdown(rising)


def test_rendering_is_deterministic():
    problem, selections = three_scenarios()
    errors = error_metrics(problem)
    table = scenario_table(problem, selections)
    first = render_report(problem, selections, errors, table)
    second = render_report(problem, selections, errors, table)
    assert first == second
    assert "## Scenario comparison by area" in first
    assert "## Selection errors" in first


def test_rendered_cells_reparse_close_to_unrounded():
    table = scenario_table(*three_scenarios())
    for row, cells in zip(table, render_scenario_csv(table)):
        for cell, exact in zip(cells[2:5], (row.s1, row.s2, row.s3)):
            assert abs(float(cell) - exact) <= 0.05
        d12 = pct_delta(row.s1, row.s2)
        d23 = pct_delta(row.s2, row.s3)
        if d12 is not None:
            assert abs(float(cells[5].rstrip("%")) - d12) <= 0.05
        if d23 is not None:
            assert abs(float(cells[6].rstrip("%")) - d23) <= 0.05
        if d12 is not None and d23 is not None:
            # the combined delta compounds the two rounded step deltas
            r12 = round_half_away(d12, 1)
            r23 = round_half_away(d23, 1)
            compound = ((1 + r12 / 100) * (1 + r23 / 100) - 1) * 100
            assert abs(float(cells[7].rstrip("%")) - compound) <= 0.05


def test_markdown_table_shape():
    text = render_scenario_markdown(scenario_table(*three_scenarios()))
    lines = text.strip().splitlines()
    assert lines[0].startswith("| Area ")
    assert len(lines) == 2 + 2 + 1  # header, rule, two areas, total
    assert lines[-1].startswith("| Total ")
    assert re.fullmatch(r"\|[^|]+(\|[^|]+){7}\|", lines[-1])


def test_error_markdown_includes_shares():
    problem = build_sets(*mini_instance())
    text = render_error_markdown(error_table(error_metrics(problem), problem))
    assert "1 (100.0%)" in text  # area 5: one overvalued pick of one declared
    assert "1 (33.3%)" in text   # institution total: one of three
