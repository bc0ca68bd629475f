"""Self-test of the benchmark at a tiny size: python3 bench/selftest.py

Runs each workload's command on a tiny institution and checks that it passes;
that the exact totals equal the independent oracle; that a corrupted
selection.csv (a product submitted twice, or a wrong total) and a non-zero
exit each count as a failed run; that the traced run's self times add up and
every metric BENCHMARK.json names is reported; and that without the program's
sources the benchmark exits non-zero and prints no result. Exit code 0 means
every check held.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
import time

import checks
import run

TINY = {
    "contested": dict(researchers=40),
    "wide": dict(researchers=60),
    "rawref": dict(researchers=30, values_per_key=40),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def tiny(name: str, seed: int, deadline: float) -> run.Prepared:
    workload = run.WORKLOADS[name]
    workload = dataclasses.replace(
        workload, knobs=dataclasses.replace(workload.knobs, **TINY[name]))
    work = run.ROOT / ".bench_work" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    return run.prepare(name, workload, seed, work, deadline)


def rewrite_selection(prep: run.Prepared, edit) -> None:
    path = prep.work / "out" / "selection.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def duplicate_pick(rows: list[list[str]]) -> None:
    """Give a second researcher's pick the product of an earlier pick."""
    picks = [r for r in rows[1:] if r[0] == "exact-C" and r[3] != "EMPTY"]
    first = picks[0]
    other = next(r for r in picks if r[1] != first[1])
    other[3], other[4] = first[3], first[4]


def swap_pick(prep: run.Prepared, rows: list[list[str]]) -> None:
    """Replace one exact-C pick by another candidate of the same researcher,
    with its true score, so that only the total is wrong."""
    _, pool_c = prep.inst.pools()
    picks = [r for r in rows[1:] if r[0] == "exact-C"]
    used = {r[3] for r in picks}
    for row in picks:
        if row[3] == "EMPTY":
            continue
        spare = [p for p in sorted(pool_c[row[1]]) if p not in used
                 and prep.scored[(row[1], p)] != prep.scored[(row[1], row[3])]
                 and prep.scored[(row[1], p)] > -checks.SHORTFALL_UNITS]
        if spare:
            row[3] = spare[0]
            row[4] = format(prep.scored[(row[1], spare[0])] / checks.SCALE, "g")
            return
    raise SystemExit("selftest FAILED: no pick could be swapped")


def main() -> int:
    deadline = time.perf_counter() + 600
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")

    preps = {}
    try:
        for name in run.WORKLOADS:
            prep = preps[name] = tiny(name, 3, deadline)
            sample = run.run_command(prep, deadline)
            expect(sample.ok, f"{name}: tiny run passes its checks {sample.detail}")

        prep = preps["contested"]
        totals = checks.check_selection(prep.work / "out" / "selection.csv", prep.inst,
                                        prep.scored, list(run.SIM_TAGS.values()))
        expect({t: totals[t] for t in prep.optimum} == prep.optimum,
               "contested: exact totals equal the scipy optimum")
        stdout = (prep.work / "run.log").read_text(encoding="utf-8")
        saved = (prep.work / "out" / "selection.csv").read_bytes()
        for label, edit in (("a product submitted twice", duplicate_pick),
                            ("a wrong total", lambda rows: swap_pick(prep, rows))):
            (prep.work / "out" / "selection.csv").write_bytes(saved)
            rewrite_selection(prep, edit)
            sample = run.judge(prep, 0, 1.0, 1.0, stdout)
            expect(not sample.ok, f"selection.csv with {label} fails: {sample.detail}")
        (prep.work / "out" / "selection.csv").write_bytes(saved)
        expect(run.judge(prep, 0, 1.0, 1.0, stdout).ok, "restored selection.csv passes")

        broken = dataclasses.replace(prep, argv=[a if a != str(prep.work / "input" / "ref")
                                                 else str(prep.work / "missing")
                                                 for a in prep.argv])
        result = run.measure(broken, 0.0, False, deadline)
        expect(result["attempted"] >= 1 and result["failed"] == result["attempted"],
               f"a non-zero exit counts as failed ({result['failed']}/{result['attempted']})")

        per_layer = {m["name"] for m in spec["per_layer"]}
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        for name, prep in preps.items():
            result = run.measure(prep, 0.0, True, deadline)
            expect(result["failed"] == 0, f"{name}: traced run passes, self times add up")
            expect(set(result["metrics"]) == per_layer,
                   f"{name}: --trace 1 reports exactly the per-layer metrics")
            expect(result["missing"] == [], f"{name}: every traced name exists")
        result = run.measure(preps["wide"], 0.0, False, deadline)
        expect(set(result["metrics"]) == end_to_end,
               "--trace 0 reports exactly the end-to-end metrics")
    finally:
        for prep in preps.values():
            shutil.rmtree(prep.work, ignore_errors=True)

    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "without the program's sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
