"""Output checks, the independent exact-optimum oracle and workload descriptors.

Everything here works from the generated institution and the program's public
output files (scored.csv, selection.csv and the totals printed on stdout), in
integer ten-thousandths of a point as the program's totals are.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from synth import PANEL_RULES, Institution

SCALE = 10000
SHORTFALL_UNITS = SCALE // 2
MATRIX_SCORES = {"A": 1.0, "B": 0.8, "C": 0.5, "D": 0.0, "IR": 0.5}
FIXED_SCORES = {"forced-ir": 0.5, "non-indexed-fallback": 0.25,
                "inadmissible": -1.0, "fraud": -2.0}
PROPOSED_ONLY = ("scenario1", "scenario2", "exact-A")

Scored = dict[tuple[str, str], int]  # (researcher, product) -> score units


def units(text: str) -> int:
    return round(float(text) * SCALE)


class CheckError(Exception):
    """An output of the program is wrong."""


def read_scored(path: Path, inst: Institution) -> Scored:
    """Parse scored.csv and check it row by row against the institution."""
    routing = {(r, p): o if o is not None else inst.researchers[r][0]
               for r, p, _, o in inst.authorships}
    scored: Scored = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["product_id", "researcher_id", "routing_gev", "outcome",
                            "score", "definite"]:
            raise CheckError("scored.csv: bad header")
        for pid, rid, gev, outcome, score, definite in reader:
            key = (rid, pid)
            if key not in routing or key in scored:
                raise CheckError(f"scored.csv: unexpected or repeated row {key}")
            if int(gev) != routing[key]:
                raise CheckError(f"scored.csv: {key} routed to {gev}, expected {routing[key]}")
            expected = MATRIX_SCORES.get(outcome, FIXED_SCORES.get(outcome))
            if outcome == "no-metric-fallback":
                expected = PANEL_RULES[int(gev)].get("no_metric_score", 0.25)
            if expected is None or units(score) != round(expected * SCALE):
                raise CheckError(f"scored.csv: {key} outcome {outcome} scored {score}")
            if (definite == "true") != (outcome in ("A", "B", "C", "D")):
                raise CheckError(f"scored.csv: {key} definite flag {definite} for {outcome}")
            scored[key] = units(score)
    if len(scored) != len(routing):
        raise CheckError(f"scored.csv: {len(scored)} rows, expected {len(routing)}")
    return scored


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def candidate_edges(pool: dict[str, set[str]], scored: Scored) -> dict[str, dict[str, int]]:
    """Per researcher, the candidates worth a slot, with their gain over an
    empty slot; a product scoring at or below the shortfall penalty never is."""
    edges: dict[str, dict[str, int]] = {}
    for rid, pids in pool.items():
        gains = {pid: scored[(rid, pid)] + SHORTFALL_UNITS for pid in pids}
        edges[rid] = {pid: g for pid, g in gains.items() if g > 0}
    return edges


def components(edges: dict[str, dict[str, int]]) -> list[list[str]]:
    """Researchers of each connected component of the candidate graph that
    has at least one edge."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rid, gains in edges.items():
        for pid in gains:
            parent[find("r:" + rid)] = find("p:" + pid)
    groups: dict[str, list[str]] = {}
    for rid, gains in edges.items():
        if gains:
            groups.setdefault(find("r:" + rid), []).append(rid)
    return list(groups.values())


def optimum_units(inst: Institution, pool: dict[str, set[str]], scored: Scored) -> int:
    """Exact maximum total, solved independently of the program: one dense
    assignment problem per component, each researcher expanded into quota
    slots, by scipy's linear_sum_assignment."""
    edges = candidate_edges(pool, scored)
    total = -SHORTFALL_UNITS * sum(inst.researchers[r][1] for r in pool)
    for group in components(edges):
        pids = sorted({pid for rid in group for pid in edges[rid]})
        col = {pid: j for j, pid in enumerate(pids)}
        slots = [rid for rid in group for _ in range(inst.researchers[rid][1])]
        gain = np.zeros((len(slots), len(pids)), dtype=np.int64)
        for i, rid in enumerate(slots):
            for pid, g in edges[rid].items():
                gain[i, col[pid]] = g
        rows, cols = linear_sum_assignment(gain, maximize=True)
        total += int(gain[rows, cols].sum())
    return total


def descriptors(inst: Institution, scored: Scored) -> dict[str, tuple[float, str]]:
    """How much of the workload has the properties the exact engine depends on,
    over the full candidate pool (pool C)."""
    edges = candidate_edges(inst.pools()[1], scored)
    holders: dict[str, int] = {}
    for gains in edges.values():
        for pid in gains:
            holders[pid] = holders.get(pid, 0) + 1
    pairs = sum(holders.values())
    groups = components(edges)
    return {
        "selection.candidates": (pairs, "count"),
        "selection.contested_frac": (sum(h > 1 for h in holders.values()) / max(1, len(holders)),
                                     "ratio"),
        "selection.private_frac": (sum(h == 1 for h in holders.values()) / max(1, pairs), "ratio"),
        "selection.components": (len(groups), "count"),
        "selection.largest_component": (max(map(len, groups), default=0), "count"),
    }


def printed_totals(stdout: str) -> dict[str, str]:
    """The "<tag>: total score <x>" lines that simulate prints."""
    totals = {}
    for line in stdout.splitlines():
        tag, sep, value = line.partition(": total score ")
        if sep:
            totals[tag] = value
    return totals


def check_selection(path: Path, inst: Institution, scored: Scored,
                    tags: list[str]) -> dict[str, int]:
    """Check selection.csv for feasibility and return each scenario's total."""
    quota = {rid: inst.researchers[rid][1] for rid in inst.active}
    pool_a, pool_c = inst.pools()
    picks: dict[str, dict[str, list[str]]] = {tag: {} for tag in tags}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["scenario", "researcher_id", "slot", "product_id_or_EMPTY",
                            "score_or_penalty"]:
            raise CheckError("selection.csv: bad header")
        for tag, rid, slot, pid, score in reader:
            if tag not in picks or rid not in quota:
                raise CheckError(f"selection.csv: unexpected row {tag} {rid}")
            slots = picks[tag].setdefault(rid, [])
            slots.append(pid)
            if int(slot) != len(slots):
                raise CheckError(f"selection.csv: {tag} {rid} slot {slot} out of order")
            expected = -SHORTFALL_UNITS if pid == "EMPTY" else scored.get((rid, pid))
            if expected is None or units(score) != expected:
                raise CheckError(f"selection.csv: {tag} {rid} {pid} scored {score}")
    totals = {}
    for tag in tags:
        pool = pool_a if tag in PROPOSED_ONLY else pool_c
        if picks[tag].keys() != quota.keys():
            raise CheckError(f"selection.csv: {tag} does not cover the active researchers")
        seen: set[str] = set()
        total = 0
        for rid, slots in picks[tag].items():
            if len(slots) != quota[rid]:
                raise CheckError(f"selection.csv: {tag} {rid} has {len(slots)} slots, "
                                 f"quota {quota[rid]}")
            filled = [pid for pid in slots if pid != "EMPTY"]
            if "EMPTY" in slots[:len(filled)]:
                raise CheckError(f"selection.csv: {tag} {rid} has a gap before a pick")
            for pid in filled:
                if pid in seen:
                    raise CheckError(f"selection.csv: {tag} submits {pid} twice")
                if pid not in pool[rid]:
                    raise CheckError(f"selection.csv: {tag} {rid} picked {pid} outside its pool")
                seen.add(pid)
                total += scored[(rid, pid)]
            total -= SHORTFALL_UNITS * (len(slots) - len(filled))
        totals[tag] = total
    return totals


def check_simulate(outdir: Path, stdout: str, inst: Institution, tags: list[str],
                   optimum: dict[str, int] | None) -> None:
    """All checks on one simulate run; raises CheckError on the first failure."""
    scored = read_scored(outdir / "scored.csv", inst)
    totals = check_selection(outdir / "selection.csv", inst, scored, tags)
    printed = printed_totals(stdout)
    for tag, total in totals.items():
        if printed.get(tag) != format(total / SCALE, "g"):
            raise CheckError(f"{tag}: printed total {printed.get(tag)}, "
                             f"selection.csv sums to {total / SCALE:g}")
    for tag, value in (optimum or {}).items():
        if tag in totals and totals[tag] != value:
            raise CheckError(f"{tag}: total {totals[tag] / SCALE} is not the optimum "
                             f"{value / SCALE}")
    order = [("exact-C", "exact-A"), ("exact-A", "scenario2"), ("exact-C", "scenario3")]
    for hi, lo in order:
        if hi in totals and lo in totals and totals[hi] < totals[lo]:
            raise CheckError(f"{hi} total {totals[hi] / SCALE} below {lo} {totals[lo] / SCALE}")
    with open(outdir / "errors.csv", encoding="utf-8") as fh:
        if sum(1 for _ in fh) - 1 != len(inst.researchers):
            raise CheckError("errors.csv: one row per researcher expected")
    if not (outdir / "report.md").read_text(encoding="utf-8").startswith("# "):
        raise CheckError("report.md: missing title")
    if {"scenario1", "scenario2", "scenario3"} <= set(tags) and not (outdir / "report.csv").exists():
        raise CheckError("report.csv: missing")


def optimum_for(inst: Institution, scored: Scored) -> dict[str, int]:
    pool_a, pool_c = inst.pools()
    return {"exact-A": optimum_units(inst, pool_a, scored),
            "exact-C": optimum_units(inst, pool_c, scored)}

