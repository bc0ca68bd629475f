"""Benchmark: seeded synthetic institutions through the real assess-opt CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload contested --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed, then the CLI command runs
again and again, each time in a fresh process, until --seconds have passed.
Every run's outputs are checked. With --trace 0 the result holds the
end-to-end metrics: the command's wall time and the start-up time of
`assess-opt --help`, both at the reference host speed (see speed_ratios), and
the command's peak memory, each the median over the run. With --trace 1
untraced and traced runs alternate (see trace_cli.py) and the result holds the
self time of each layer, work counts, the tracing overhead and workload
descriptors.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Without the program's
sources next to the benchmark it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import synth

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The installed console script's entry point, plus a note of the process's
# peak resident memory (VmHWM) on the way out. The kernel's ru_maxrss for a
# child also counts memory the benchmark process held when it forked.
ENTRY = """\
import os, sys
from assessopt.cli import main
try:
    code = main()
finally:
    with open(os.environ["BENCH_PEAK_RSS_FILE"], "w") as out, open("/proc/self/status") as st:
        out.write(next(line for line in st if line.startswith("VmHWM:")))
sys.exit(code)
"""
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends well within 180 s
# calib.py's wall time on the host the benchmark was defined on when that host
# was quiet (2-vCPU Intel Xeon VM, Python 3.11.7): the reference host speed.
CALIB_REFERENCE_S = 0.12


@dataclass(frozen=True)
class Workload:
    knobs: synth.Knobs
    command: str  # "simulate" or "score"
    scenarios: tuple[str, ...] = ()


SIM_TAGS = {"1": "scenario1", "2": "scenario2", "3": "scenario3",
            "exact-A": "exact-A", "exact-C": "exact-C"}

# Why these three: see README.md. Sized so that one command takes the program
# as first benchmarked well under a second on a 2-vCPU Xeon virtual machine, so
# that a 30-second run holds some twenty-five commands.
WORKLOADS = {
    "contested": Workload(
        synth.Knobs(researchers=110, products_per_researcher=12, coauthor_rate=0.3,
                    proposal_rate=0.3),
        "simulate", ("1", "2", "3", "exact-A", "exact-C")),
    "wide": Workload(
        synth.Knobs(researchers=600, products_per_researcher=12.5, coauthor_rate=0.1,
                    proposal_rate=0.3),
        "simulate", ("1", "2", "3")),
    "rawref": Workload(
        synth.Knobs(researchers=200, products_per_researcher=12, reference="worldvalues",
                    values_per_key=130),
        "score"),
}

# scored.csv of rawref at the default seed, as the program wrote it when the
# benchmark was added. Outputs must stay byte-identical.
DEFAULT_SEED = 1
RAWREF_SCORED = {"rows": 3410,
                 "sha256": "c0ebbf18e8d6383ca75af50aac0a4d3fe463aa59ea50d1699916b3e58cc8baed"}


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    ok: bool
    detail: str = ""


@dataclass
class Prepared:
    name: str
    workload: Workload
    seed: int
    work: Path
    inst: synth.Institution
    argv: list[str] = field(default_factory=list)
    scored: checks.Scored = field(default_factory=dict)
    scored_digest: str = ""
    optimum: dict[str, int] = field(default_factory=dict)


def spawn(cmd: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one process to completion; returns (exit code, wall s, peak RSS MB,
    or NaN when the process did not report it). A process still running after
    timeout seconds is killed and waited for."""
    peak_file = log.with_suffix(".rss")
    peak_file.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               BENCH_PEAK_RSS_FILE=str(peak_file))
    env.pop("ASSESS_OPT_LOG", None)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:  # interrupted: do not leave the child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    try:
        peak_mb = int(peak_file.read_text().split()[1]) / 1024.0  # "VmHWM: <n> kB"
    except (OSError, IndexError, ValueError):
        peak_mb = math.nan
    return proc.returncode, wall, peak_mb


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", ENTRY, *argv]


def prepare(name: str, workload: Workload, seed: int, work: Path,
            deadline: float) -> Prepared:
    """Generate the inputs and compute what the checks compare against: the
    scored products from one set-up run of `score` and, where asked, the
    exact optima from the independent oracle."""
    inst = synth.generate(work / "input", workload.knobs, seed)
    prep = Prepared(name, workload, seed, work, inst)
    inputs = ["--corpus", str(work / "input" / "corpus"),
              "--profiles", str(work / "input" / "profiles.json"),
              "--ref", str(work / "input" / "ref")]
    out = work / "out"
    if workload.command == "simulate":
        prep.argv = ["simulate", *inputs, "--scenarios", ",".join(workload.scenarios),
                     "-o", str(out)]
        scored_path = work / "setup-scored.csv"
        code, _, _ = spawn(cli_cmd(["score", *inputs, "-o", str(scored_path)]),
                           work / "setup.log", deadline - time.perf_counter())
        if code != 0:
            raise RuntimeError(f"set-up scoring failed with exit code {code}: "
                               + (work / "setup.log").read_text(errors="replace")[-2000:])
        prep.scored = checks.read_scored(scored_path, inst)
        prep.scored_digest = checks.digest(scored_path)
        if {"exact-A", "exact-C"} & set(workload.scenarios):
            prep.optimum = checks.optimum_for(inst, prep.scored)
    else:
        prep.argv = ["score", *inputs, "-o", str(out / "scored.csv")]
    return prep


def check_outputs(prep: Prepared, stdout: str) -> None:
    out = prep.work / "out"
    if prep.workload.command == "score":
        checks.read_scored(out / "scored.csv", prep.inst)
        if prep.name == "rawref" and prep.seed == DEFAULT_SEED and (
                len(prep.inst.authorships) != RAWREF_SCORED["rows"]
                or checks.digest(out / "scored.csv") != RAWREF_SCORED["sha256"]):
            raise checks.CheckError("scored.csv differs from the recorded default-seed output")
        return
    if checks.digest(out / "scored.csv") != prep.scored_digest:
        raise checks.CheckError("scored.csv differs from the set-up scoring run")
    tags = [SIM_TAGS[s] for s in prep.workload.scenarios]
    checks.check_simulate(out, stdout, prep.inst, tags, prep.optimum)


def run_command(prep: Prepared, deadline: float, spans: Path | None = None) -> Sample:
    """One fresh-process run of the workload's command, then its checks."""
    out = prep.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if spans is None:
        cmd = cli_cmd(prep.argv)
    else:
        cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(spans), *prep.argv]
    log = prep.work / "run.log"
    code, wall, rss = spawn(cmd, log, deadline - time.perf_counter())
    return judge(prep, code, wall, rss, log.read_text(encoding="utf-8", errors="replace"))


def judge(prep: Prepared, code: int, wall: float, rss: float, stdout: str) -> Sample:
    """A run fails on a non-zero exit or on any failed output check."""
    if code != 0:
        return Sample(wall, rss, False, f"exit code {code}: {stdout[-500:]}")
    try:
        check_outputs(prep, stdout)
    except (checks.CheckError, OSError, ValueError) as exc:
        return Sample(wall, rss, False, str(exc))
    return Sample(wall, rss, True)


def help_time(prep: Prepared, deadline: float) -> float:
    code, wall, _ = spawn(cli_cmd(["--help"]), prep.work / "help.log",
                          deadline - time.perf_counter())
    if code != 0:
        raise RuntimeError(f"assess-opt --help exited with code {code}")
    return wall


def calib_time(prep: Prepared, deadline: float) -> float:
    code, wall, _ = spawn([sys.executable, str(BENCH / "calib.py")], prep.work / "calib.log",
                          deadline - time.perf_counter())
    if code != 0:
        raise RuntimeError(f"calib.py exited with code {code}")
    return wall


def speed_ratios(times: list[float], calibs: list[float]) -> list[float]:
    """Each round's time at the reference host speed.

    On a shared host the same command takes up to twice as long from one
    stretch of seconds to the next, as other tenants come and go, and process
    time inflates with wall time. calib.py never changes and runs once before
    each round and once after the last; scaling round i's time by the mean of
    the calibrations on either side of it (calibs[i] and calibs[i + 1]) removes
    most of the host's drift, and the median over the run the rest."""
    return [t * 2 * CALIB_REFERENCE_S / (calibs[i] + calibs[i + 1])
            for i, t in enumerate(times)]


def layer_times(path: Path) -> tuple[dict[str, float], dict[str, int], dict, list[str]]:
    """Self time per layer metric from a span file, with call counts, work
    counts and missing names. Raises CheckError when self times do not add
    up to the root span."""
    data = json.loads(path.read_text(encoding="utf-8"))
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for name, metric, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, metric, start, end, parent), inner in zip(spans, child_time):
        self_s[metric] = self_s.get(metric, 0.0) + (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
    roots = [end - start for _, _, start, end, parent in spans if parent < 0]
    if len(roots) != 1 or abs(sum(self_s.values()) - roots[0]) > 1e-6:
        raise checks.CheckError("layer self times do not add up to the traced total")
    self_s["trace.total_s"] = roots[0]
    return self_s, calls, data["counts"], data["missing"]


LAYER_METRICS = [
    "corpus.load_s", "reference.load_s", "gev.profiles_s", "gev.score_s", "gev.write_s",
    "selection.build_sets_s", "selection.errors_s", "selection.scenario1_s",
    "selection.scenario2_s", "selection.scenario3_s", "selection.exact_a_s",
    "selection.exact_c_s", "selection.write_s", "report.render_s", "cli.self_s",
    "trace.total_s",
]
COUNT_METRICS = ["corpus.rows", "reference.values", "gev.scored"]


def measure(prep: Prepared, seconds: float, trace: bool, deadline: float) -> dict:
    helps: list[float] = []
    calibs: list[float] = []
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict[str, float]] = []
    calls: dict[str, int] = {}
    counts: dict = {}
    missing: list[str] = []
    start = time.perf_counter()
    while True:
        calibs.append(calib_time(prep, deadline))
        helps.append(help_time(prep, deadline))
        plain.append(run_command(prep, deadline))
        if trace:
            spans = prep.work / "spans.json"
            sample = run_command(prep, deadline, spans)
            if sample.ok:
                try:
                    self_s, calls, counts, missing = layer_times(spans)
                    layers.append(self_s)
                except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                    sample = Sample(sample.wall_s, sample.peak_rss_mb, False, str(exc))
            traced.append(sample)
        # Stop unless one more round would end less than half a round after --seconds.
        now = time.perf_counter()
        per_round = (now - start) / len(plain)
        if now - start + per_round / 2 >= seconds or now + per_round > deadline:
            break
    calibs.append(calib_time(prep, deadline))
    samples = plain + traced
    failures = [s.detail for s in samples if not s.ok]
    for detail in failures[:3]:
        print(f"FAILED: {detail}", file=sys.stderr)
    wall = statistics.median(s.wall_s for s in plain)
    result = {"attempted": len(samples), "failed": len(failures)}
    if not trace:
        result["metrics"] = {
            "wall_s": (statistics.median(speed_ratios([s.wall_s for s in plain], calibs)), "s"),
            "peak_rss_mb": (statistics.median(
                [s.peak_rss_mb for s in plain if math.isfinite(s.peak_rss_mb)] or [0.0]), "MB"),
            "setup_s": (statistics.median(speed_ratios(helps, calibs)), "s"),
        }
        result["walls"] = [s.wall_s for s in plain]
        result["helps"] = helps
        result["calibs"] = calibs
        return result
    metrics = {m: (statistics.median(l.get(m, 0.0) for l in layers) if layers else 0.0, "s")
               for m in LAYER_METRICS}
    metrics["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in traced) - wall, "s")
    metrics["selection.build_sets.calls"] = (calls.get("selection.build_sets", 0), "count")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["trace.missing"] = (len(missing), "count")
    metrics.update(checks.descriptors(prep.inst, prep.scored or checks.read_scored(
        prep.work / "out" / "scored.csv", prep.inst)))
    result["metrics"] = metrics
    result["calls"] = calls
    result["missing"] = missing
    return result


def report(name: str, seed: int, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}, seed {seed}: {attempted} runs, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    for label in ("walls", "helps", "calibs"):
        if label in result:
            print(f"  {label}: n={len(result[label])} " + " ".join(
                f"{x:.4f}" for x in sorted(result[label])))
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:32s} {value:14.6f} {unit}")
    for fn, n in sorted(result.get("calls", {}).items()):
        print(f"  calls {fn:40s} {n}")
    for fn in result.get("missing", []):
        print(f"  missing {fn}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    if not (SRC / "assessopt" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + HARD_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        prep = prepare(args.workload, WORKLOADS[args.workload], args.seed, work, deadline)
        result = measure(prep, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    report(args.workload, args.seed, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
