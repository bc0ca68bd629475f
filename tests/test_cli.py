"""CLI subcommands, exit codes and output determinism."""

from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import assessopt
from assessopt import selection
from assessopt.cli import main
from assessopt.corpus import (
    AUTHORSHIP_COLUMNS,
    PRODUCT_COLUMNS,
    RESEARCHER_COLUMNS,
    load_corpus_dir,
    read_rows,
)
from assessopt.errors import ParseError
from assessopt.gev import SCORED_COLUMNS
from assessopt.reference import (
    MERGEMAP_COLUMNS, THRESHOLD_COLUMNS, WORLDVALUE_COLUMNS, load_reference_dir,
)

FIXTURES = Path(__file__).parent / "fixtures"
MINI = FIXTURES / "mini_university"
GOLDEN = Path(__file__).parent / "golden" / "mini_university"

MINI_ARGS = [
    "--corpus", str(MINI),
    "--profiles", str(MINI / "profiles.json"),
    "--ref", str(MINI / "ref"),
]

OUTPUT_FILES = ["scored.csv", "selection.csv", "errors.csv", "report.md", "report.csv"]


def test_validate_clean_fixture(capsys):
    assert main(["validate", *MINI_ARGS]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_accepts_byte_order_mark(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    researchers = corpus / "researchers.csv"
    researchers.write_bytes(b"\xef\xbb\xbf" + researchers.read_bytes())
    assert main([
        "validate", "--corpus", str(corpus),
        "--profiles", str(MINI / "profiles.json"), "--ref", str(MINI / "ref"),
    ]) == 0


@pytest.mark.parametrize("name", ["researchers.csv", "profiles.json"])
def test_validate_rejects_non_utf8_input(tmp_path, capsys, name):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    path = corpus / name
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xe9", 1))
    assert main([
        "validate", "--corpus", str(corpus),
        "--profiles", str(corpus / "profiles.json"), "--ref", str(MINI / "ref"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text (byte 0xe9")
    assert err.count("\n") == 1  # one message line, no traceback


@pytest.mark.parametrize("name, text, where", [
    ("products.csv",
     ",".join(PRODUCT_COLUMNS) + "\n" + "x" * 200_000 + "," * (len(PRODUCT_COLUMNS) - 1) + "\n",
     ":2: field larger than field limit"),
    ("profiles.json", "[" * 100_000, ": invalid JSON: "),
    ("profiles.json", '{"profiles": [{"gev_id": ' + "7" * 5000 + "}]}", ": invalid JSON: "),
], ids=["long-csv-field", "deep-json", "huge-json-integer"])
def test_validate_rejects_oversize_input(tmp_path, capsys, name, text, where):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    path = corpus / name
    path.write_text(text, encoding="utf-8")
    assert main([
        "validate", "--corpus", str(corpus),
        "--profiles", str(corpus / "profiles.json"), "--ref", str(MINI / "ref"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}")
    assert err.count("\n") == 1  # one message line, no traceback



# Runs main in a child interpreter whose address space is capped at 1 GiB, so
# that an input which makes the program allocate without bound ends in
# MemoryError there instead of exhausting the host.
_CAPPED_MAIN = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
sys.path.insert(0, sys.argv.pop(1))
from assessopt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _capped_main(args: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    src = str(Path(assessopt.__file__).parent.parent)
    return subprocess.run([sys.executable, "-c", _CAPPED_MAIN, src, *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_window_years_outside_four_digits_are_a_usage_error():
    run = _capped_main(["validate", *MINI_ARGS, "--window", "2004:99999999999999999999"])
    assert run.returncode == 2
    assert "window years must lie in 1000-9999, got '2004:99999999999999999999'" in run.stderr


@pytest.mark.parametrize("window, message", [
    ("2004-2010", "window must look like 2004:2010, got '2004-2010'"),
    ("2010:2004", "window '2010:2004' is reversed"),
])
def test_a_malformed_window_is_a_usage_error(capsys, window, message):
    with pytest.raises(SystemExit) as caught:
        main(["validate", *MINI_ARGS, "--window", window])
    assert caught.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --window: {message}\n")


def test_validate_accepts_one_age_band_spanning_a_trillion_years(tmp_path):
    path = tmp_path / "profiles.json"
    pack = json.loads((MINI / "profiles.json").read_text(encoding="utf-8"))
    band = pack["profiles"][0]["age_bands"][0]
    pack["profiles"][0]["age_bands"] = [{"years": [0, 10**12], "matrix": band["matrix"]}]
    path.write_text(json.dumps(pack), encoding="utf-8")
    run = _capped_main(["validate", "--corpus", str(MINI), "--profiles", str(path),
                        "--ref", str(MINI / "ref")])
    assert (run.returncode, run.stderr) == (0, "")


_HEADER_ONLY = "no data rows after the header"


@pytest.mark.parametrize("present, named, message", [
    (["worldvalues.csv"], "worldvalues.csv", _HEADER_ONLY),
    (["thresholds.csv"], "thresholds.csv", _HEADER_ONLY),
    (["worldvalues.csv", "thresholds.csv"], "worldvalues.csv", _HEADER_ONLY),
    ([], None, "no reference data: need worldvalues.csv or thresholds.csv"),
], ids=["worldvalues", "thresholds", "both", "neither"])
def test_reference_dir_without_data_rows(tmp_path, capsys, present, named, message):
    """A reference file holding only its header is named; only a directory
    holding neither file reads as missing reference data."""
    ref = tmp_path / "ref"
    ref.mkdir()
    shutil.copy(MINI / "ref" / "mergemap.csv", ref)
    columns = {"worldvalues.csv": WORLDVALUE_COLUMNS, "thresholds.csv": THRESHOLD_COLUMNS}
    for name in present:
        (ref / name).write_text(",".join(columns[name]) + "\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(MINI),
                 "--profiles", str(MINI / "profiles.json"), "--ref", str(ref)]) == 2
    assert capsys.readouterr().err == f"error: {ref / named if named else ref}: {message}\n"


def test_unknown_log_level_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ASSESS_OPT_LOG", "verbose")
    assert main(["validate", *MINI_ARGS]) == 2
    assert capsys.readouterr().err == "error: ASSESS_OPT_LOG: unknown level 'verbose'\n"


def test_empty_log_level_means_the_default(monkeypatch, capsys):
    monkeypatch.setenv("ASSESS_OPT_LOG", "")
    assert main(["validate", *MINI_ARGS]) == 0
    assert capsys.readouterr().err == ""


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    unknown = ["poster", "dataset", "blog-post", "talk"]
    path = tmp_path / "profiles.json"
    pack = json.loads((MINI / "profiles.json").read_text(encoding="utf-8"))
    pack["profiles"][0]["allowed_kinds"] += unknown
    path.write_text(json.dumps(pack), encoding="utf-8")
    args = ["validate", "--corpus", str(MINI), "--profiles", str(path), "--ref", str(MINI / "ref")]
    runs = [_capped_main(args, env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
    expected = "".join(f"validation: profile 1: unknown product kind {kind!r} in allowed_kinds\n"
                       for kind in sorted(unknown))
    for run in runs:
        assert (run.returncode, run.stderr) == (1, expected)


@pytest.mark.parametrize("fixture", ["mini_university", "witness"])
def test_simulate_output_does_not_depend_on_the_hash_seed(tmp_path, fixture):
    root = FIXTURES / fixture
    out = tmp_path / "out"
    args = ["simulate", "--corpus", str(root), "--profiles", str(root / "profiles.json"),
            "--ref", str(root / "ref"), "-o", str(out)]
    runs = []
    for seed in ("1", "2"):
        run = _capped_main(args, env={**os.environ, "PYTHONHASHSEED": seed,
                                      "ASSESS_OPT_LOG": "DEBUG"})
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        runs.append((run.returncode, run.stdout, run.stderr, files))
    assert runs[0][0] == 0
    assert "DEBUG assessopt.selection: exact-C: " in runs[0][2]
    assert runs[0] == runs[1]


def _append(name: str, text: str):
    def mutate(root: Path) -> None:
        with open(root / name, "a", encoding="utf-8") as fh:
            fh.write(text)
    return mutate


def _replace(name: str, old: str, new: str):
    def mutate(root: Path) -> None:
        path = root / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return mutate


def _write(name: str, text: str):
    return lambda root: (root / name).write_text(text, encoding="utf-8")


def _edit_profiles(change):
    """Apply change to the pack's list of profiles; the first is GEV 1's."""
    def mutate(root: Path) -> None:
        path = root / "profiles.json"
        pack = json.loads(path.read_text(encoding="utf-8"))
        change(pack["profiles"])
        path.write_text(json.dumps(pack), encoding="utf-8")
    return mutate


_P01 = "P01,journal-article,2006,false,MATH-APPL,,12,J-M4,,,,"

# (mutation of a mini_university copy, exit code, the whole of stderr)
INPUT_CHECKS = {
    "empty-csv": (_write("researchers.csv", ""), 2,
                  "error: {root}/researchers.csv: empty file, header row required\n"),
    "record-without-citations": (
        _replace("products.csv", _P01, _P01.replace(",12,", ",,")), 2,
        "error: {root}/products.csv:2: wos record present but has no citation count\n"),
    "hundred-character-year": (  # the echo stops at 60 characters of the quoted text
        _replace("products.csv", _P01, _P01.replace(",2006,", "," + "soon" * 25 + ",")), 2,
        "error: {root}/products.csv:2: year is not an integer: "
        "'soonsoonsoonsoonsoonsoonsoonsoonsoonsoonsoonsoonsoonsoonsoo...\n"),
    "unknown-product-kind": (
        _replace("products.csv", _P01, _P01.replace("journal-article", "poster")), 1,
        "validation: {root}/products.csv:2: unknown product kind 'poster'\n"),
    "two-unknown-product-kinds": (  # both reported, and P01 and P02 stay known to authorships
        lambda root: (_replace("products.csv", "P01,journal-article", "P01,poster")(root),
                      _replace("products.csv", "P02,journal-article", "P02,talk")(root)), 1,
        "validation: {root}/products.csv:2: unknown product kind 'poster'\n"
        "validation: {root}/products.csv:3: unknown product kind 'talk'\n"),
    "empty-researcher-id": (_append("researchers.csv", ",MAT/05,1,3\n"), 1,
                            "validation: {root}/researchers.csv:14: empty researcher id\n"),
    "empty-product-id": (_append("products.csv", ",journal-article,2006,false,,,,,,,,\n"), 1,
                         "validation: {root}/products.csv:41: empty product id\n"),
    "negative-citations": (
        _append("products.csv", "P98,journal-article,2006,false,MATH-APPL,,-1,,,,,\n"), 1,
        "validation: {root}/products.csv:41: wos citations -1 negative\n"),
    "negative-metric": (
        _append("products.csv", "P98,journal-article,2006,false,,,,,MATH-APPL,-0.5,3,\n"), 1,
        "validation: {root}/products.csv:41: scopus metric -0.5 negative\n"),
    "unknown-researcher": (_append("authorships.csv", "R99,P01,,\n"), 1,
                           "validation: {root}/authorships.csv:45: unknown researcher id 'R99'\n"),
    "duplicate-authorship": (
        _append("authorships.csv", "R01,P01,,\n"), 1,
        "validation: {root}/authorships.csv:45: duplicate authorship ('R01', 'P01')\n"),
    "priority-below-one": (_append("authorships.csv", "R01,P05,0,\n"), 1,
                           "validation: {root}/authorships.csv:45: declared_priority 0 < 1\n"),
    "override-outside-panels": (
        _append("authorships.csv", "R01,P05,,10\n"), 1,
        "validation: {root}/authorships.csv:45: gev_override 10 outside 1..9\n"),
    "unknown-matrix-outcome": (
        _replace("profiles.json", '"A"', '"Z"'), 2,
        "error: {root}/profiles.json: malformed profile entry: unknown matrix outcome 'Z'\n"),
    "age-bands-not-a-list": (
        _edit_profiles(lambda ps: ps[0].update(age_bands={})), 2,
        "error: {root}/profiles.json: malformed profile entry: "
        "age_bands must be a list, got {{}}\n"),
    "one-year-band": (
        _edit_profiles(lambda ps: ps[0]["age_bands"][0].update(years=[2004])), 2,
        "error: {root}/profiles.json: malformed profile entry: "
        "age_bands years must be [first, last], got [2004]\n"),
    "thousand-year-band": (  # the echo stops at 60 characters of the list's JSON
        _edit_profiles(lambda ps: ps[0]["age_bands"][0].update(years=list(range(1000, 2000)))),
        2, "error: {root}/profiles.json: malformed profile entry: age_bands years must be "
        "[first, last], got [1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,...\n"),
    "misspelt-profile-key": (
        _replace("profiles.json", '"no_metric_score": 0.25', '"no_metric_scor": 0.9'), 2,
        "error: {root}/profiles.json: malformed profile entry: "
        'profiles[0] has unknown key "no_metric_scor"\n'),
    "panel-outside-1-9": (_edit_profiles(lambda ps: ps[0].update(gev_id=10)), 1,
                          "validation: profile 10: gev_id 10 outside 1..9\n"),
    "unknown-source-policy": (
        _edit_profiles(lambda ps: ps[0].update(source_policy="wos-first")), 1,
        "validation: profile 1: unknown source policy 'wos-first'\n"),
    "unknown-allowed-kind": (
        _edit_profiles(lambda ps: ps[0]["allowed_kinds"].append("poster")), 1,
        "validation: profile 1: unknown product kind 'poster' in allowed_kinds\n"),
    "fallback-score-outside-range": (
        _edit_profiles(lambda ps: ps[0].update(no_metric_score=1.5)), 1,
        "validation: profile 1: no_metric_score 1.5 outside [-2, 1]\n"),
    "journal-class-outside-1-4": (
        _edit_profiles(lambda ps: ps[0]["ir_journal_class_list"].update({"J-M1": 5})), 1,
        "validation: profile 1: journal class 5 for 'J-M1' outside 1..4\n"),
    "profiles-not-found": (lambda root: (root / "profiles.json").unlink(), 2,
                           "error: {root}/profiles.json: file not found\n"),
    "duplicate-profile": (_edit_profiles(lambda ps: ps.append(ps[0])), 2,
                          "error: {root}/profiles.json: duplicate profile for GEV 1\n"),
    "threshold-count-below-one": (
        _replace("ref/thresholds.csv", "citations,MATH-APPL,2005,any,10,20,30,100",
                 "citations,MATH-APPL,2005,any,10,20,30,0"), 2,
        "error: {root}/ref/thresholds.csv:2: n must be >= 1, got 0\n"),
    "duplicate-merge-category": (
        _append("ref/mergemap.csv", "Oncology,MED-G2\n"), 2,
        "error: {root}/ref/mergemap.csv:4: duplicate merge-map category 'Oncology'\n"),
    "key-in-both-reference-files": (
        _write("ref/worldvalues.csv", "indicator,category_group,year,doc_split,value\n"
                                      "citations,MATH-APPL,2005,any,3\n"), 2,
        "error: {root}/ref/thresholds.csv: distribution key (citations, MATH-APPL, 2005, any) "
        "defined in both worldvalues.csv and thresholds.csv\n"),
}


@pytest.mark.parametrize("mutate, code, stderr", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_validate_reports_each_input_check(tmp_path, capsys, mutate, code, stderr):
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    mutate(root)
    assert main(["validate", "--corpus", str(root),
                 "--profiles", str(root / "profiles.json"), "--ref", str(root / "ref")]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr.format(root=root))


def test_an_empty_quota_loads_as_three(tmp_path):
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    _replace("researchers.csv", "R03,MAT/03,1,2\n", "R03,MAT/03,1,\n")(root)
    assert load_corpus_dir(root).researchers["R03"].quota == 3


def test_a_citation_count_past_float_range_scores(tmp_path, capsys):
    """A count too large for a float is compared with the class thresholds
    exactly, so it scores as any count above the top threshold does."""
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    p03 = "P03,journal-article,2007,false,MATH-APPL,2.5,35,"
    outputs = []
    for count in ("9" * 400, str(10**9)):
        products = root / "products.csv"
        products.write_text((MINI / "products.csv").read_text(encoding="utf-8").replace(
            p03, p03.replace(",35,", f",{count},")), encoding="utf-8")
        out = tmp_path / f"scored-{len(count)}.csv"
        assert main(["score", "--corpus", str(root), "--profiles", str(root / "profiles.json"),
                     "--ref", str(root / "ref"), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1]
    assert b"P03," in outputs[0]


def test_validate_dangling_reference(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    with open(corpus / "authorships.csv", "a", encoding="utf-8") as fh:
        fh.write("R01,P99,6,\n")
    code = main([
        "validate", "--corpus", str(corpus),
        "--profiles", str(MINI / "profiles.json"), "--ref", str(MINI / "ref"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "P99" in err
    assert "authorships.csv:45" in err


def _inputs(tmp_path) -> Path:
    """A copy of mini_university whose ref directory also holds raw world values."""
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    (root / "ref" / "worldvalues.csv").write_text(
        "indicator,category_group,year,doc_split,value\n"
        "citations,EXTRA,2006,any,3\n"
        "citations,EXTRA,2006,any,1\n",
        encoding="utf-8",
    )
    return root


def _set_field(path: Path, column: str, text: str) -> None:
    """Put text into one column of the first data row (line 2)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[1].split(",")
    fields[lines[0].split(",").index(column)] = text
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


TYPED_COLUMNS = [
    (name, column)
    for name, schema in (
        ("researchers.csv", RESEARCHER_COLUMNS),
        ("products.csv", PRODUCT_COLUMNS),
        ("authorships.csv", AUTHORSHIP_COLUMNS),
        ("ref/worldvalues.csv", WORLDVALUE_COLUMNS),
        ("ref/thresholds.csv", THRESHOLD_COLUMNS),
    )
    for column, parse in schema.items()
    if parse is not str
]


@pytest.mark.parametrize("name, column", TYPED_COLUMNS)
def test_bad_field_names_file_line_column_and_text(tmp_path, name, column):
    root = _inputs(tmp_path)
    path = root / name
    _set_field(path, column, ";")  # no column parser accepts it
    with pytest.raises(ParseError) as exc:
        load_corpus_dir(root)
        load_reference_dir(root / "ref")
    assert (exc.value.file, exc.value.line) == (str(path), 2)
    assert f"{column} is not " in str(exc.value)
    assert "';'" in str(exc.value)


@pytest.mark.parametrize("name, column, text", [
    ("products.csv", "wos_metric", "nan"),
    ("products.csv", "wos_metric", "inf"),
    ("ref/thresholds.csv", "p80", "inf"),
    ("ref/thresholds.csv", "p50", "nan"),
    ("ref/worldvalues.csv", "value", "nan"),
    ("ref/worldvalues.csv", "value", "inf"),
])
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, name, column, text):
    root = _inputs(tmp_path)
    path = root / name
    _set_field(path, column, text)
    assert main([
        "validate", "--corpus", str(root),
        "--profiles", str(root / "profiles.json"), "--ref", str(root / "ref"),
    ]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: {column} ")


def test_validate_missing_file(tmp_path):
    assert main([
        "validate", "--corpus", str(tmp_path),
        "--profiles", str(MINI / "profiles.json"), "--ref", str(MINI / "ref"),
    ]) == 2


def _drop_distributions(root: Path) -> None:
    # thresholds that lack every key the corpus needs
    (root / "ref" / "thresholds.csv").write_text(
        "indicator,category_group,year,doc_split,p50,p60,p80,n\n"
        "citations,NOWHERE,2006,any,1,2,3,9\n",
        encoding="utf-8",
    )


def _add_peer_review_authorship(root: Path) -> None:
    with open(root / "researchers.csv", "a", encoding="utf-8") as fh:
        fh.write("R13,L-ANT/01,10,3\n")
    with open(root / "authorships.csv", "a", encoding="utf-8") as fh:
        fh.write("R13,P01,,\n")


def _drop_profile_6(root: Path) -> None:
    path = root / "profiles.json"
    pack = json.loads(path.read_text(encoding="utf-8"))
    pack["profiles"] = [p for p in pack["profiles"] if p["gev_id"] != 6]
    path.write_text(json.dumps(pack), encoding="utf-8")


@pytest.mark.parametrize("mutate, first_line", [
    (_drop_distributions,
     "validation: no reference distribution for any of: (citations, MATH-APPL, 2006, any)"),
    (_add_peer_review_authorship,
     "validation: peer-review-only UDA 10: product 'P01' of researcher 'R13' "
     "has no bibliometric panel"),
    (_drop_profile_6, "validation: no profile configured for GEV 6"),
], ids=["missing-distribution", "peer-review-only", "unprofiled-panel"])
def test_scoring_failure_exits_1(tmp_path, capsys, mutate, first_line):
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    mutate(root)
    code = main([
        "simulate", "--corpus", str(root),
        "--profiles", str(root / "profiles.json"), "--ref", str(root / "ref"),
        "--scenarios", "1", "-o", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0] == first_line


@pytest.mark.parametrize("mutate, first_line", [
    (_drop_profile_6, "validation: no profile configured for GEV 6"),
    (_drop_distributions, "validation: no reference distribution for any of: "),
], ids=["unprofiled-panel", "missing-distribution"])
def test_validate_fails_where_score_fails(tmp_path, capsys, mutate, first_line):
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    mutate(root)
    args = ["--corpus", str(root), "--profiles", str(root / "profiles.json"),
            "--ref", str(root / "ref")]
    assert main(["validate", *args]) == 1
    validate = capsys.readouterr()
    assert main(["score", *args, "-o", str(tmp_path / "scored.csv")]) == 1
    assert capsys.readouterr().err == validate.err
    assert validate.out == ""
    assert validate.err.startswith(first_line)


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("mutate, code", [
    (lambda root: None, 0),
    (_drop_profile_6, 1),
    (lambda root: (root / "products.csv").unlink(), 2),
], ids=["ok", "validation", "missing-file"])
def test_main_leaves_the_cycle_collector_as_it_found_it(tmp_path, capsys, mutate, code,
                                                         collecting):
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    mutate(root)
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["score", "--corpus", str(root), "--profiles", str(root / "profiles.json"),
                     "--ref", str(root / "ref"), "-o", str(tmp_path / "scored.csv")]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_build_dist(tmp_path):
    src = tmp_path / "worldvalues.csv"
    src.write_text(
        "indicator,category_group,year,doc_split,value\n"
        + "".join(f"citations,X,2006,any,{v}\n" for v in range(1, 11)),
        encoding="utf-8",
    )
    out = tmp_path / "thresholds.csv"
    assert main(["build-dist", "--worldvalues", str(src), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "indicator,category_group,year,doc_split,p50,p60,p80,n\n"
        "citations,X,2006,any,5,6,8,10\n"
    )


def test_build_dist_without_data_rows_writes_nothing(tmp_path, capsys):
    src = tmp_path / "worldvalues.csv"
    src.write_text(",".join(WORLDVALUE_COLUMNS) + "\n", encoding="utf-8")
    out = tmp_path / "thresholds.csv"
    assert main(["build-dist", "--worldvalues", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}: {_HEADER_ONLY}\n"
    assert not out.exists()


def test_build_dist_logs_a_two_line_worldvalues_record_only(tmp_path, caplog, capsys):
    """A file with a record over two lines is logged once, at INFO and on no output,
    and read row by row to the same thresholds; a plain or a quoted file logs nothing."""
    caplog.set_level(logging.INFO, logger="assessopt")
    last = {"plain": "citations,X,2006,any,3", "quoted": 'citations,"X",2006,any,3',
            "two-line": 'citations,X,"2006\n",any,3'}
    outputs = {}
    for name, row in last.items():
        src = tmp_path / f"{name}.csv"
        src.write_text(",".join(WORLDVALUE_COLUMNS) + "\ncitations,X,2006,any,1\n"
                       f"citations,X,2006,any,2\n{row}\n", encoding="utf-8")
        out = tmp_path / f"{name}-thresholds.csv"
        assert main(["build-dist", "--worldvalues", str(src), "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 1 distributions to {out}\n"
        outputs[name] = out.read_bytes()
    assert outputs["two-line"] == outputs["quoted"] == outputs["plain"]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [(
        "assessopt.reference", "INFO",
        f"{tmp_path / 'two-line.csv'}:4: not a one-line record; reading row by row",
    )]


# Runs main in a fresh interpreter and prints, as the last line of stdout,
# the modules that the import of the CLI and the command loaded.
_MAIN_THEN_MODULES = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv.pop(1))
from assessopt.cli import main
code = main(sys.argv[1:])
print(*set(sys.modules) - before)
sys.exit(code)
"""
LAZY_MODULES = {"logging", "assessopt.selection", "assessopt.report", "assessopt.matching"}


def _fresh_main(args: list[str], log_level: str | None = None):
    """Run main on args in a fresh process, with ASSESS_OPT_LOG set to
    log_level or unset; return the process, its stdout before the module
    line, and the modules of LAZY_MODULES it loaded."""
    env = {name: value for name, value in os.environ.items() if name != "ASSESS_OPT_LOG"}
    if log_level is not None:
        env["ASSESS_OPT_LOG"] = log_level
    src = str(Path(assessopt.__file__).parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_MODULES, src, *args],
        capture_output=True, text=True, timeout=120, env=env)
    *lines, loaded = run.stdout.splitlines()
    return run, lines, set(loaded.split()) & LAZY_MODULES


@pytest.mark.parametrize("command, options, loaded", [
    ("validate", [], set()),
    ("score", ["-o", "{tmp}/scored.csv"], set()),
    ("errors", ["-o", "{tmp}/errors.csv"], {"assessopt.selection"}),
    ("simulate", ["--scenarios", "1,2,3", "-o", "{tmp}/out"],
     {"assessopt.selection", "assessopt.report"}),
    ("simulate", ["--scenarios", "1,2,3,exact-A,exact-C", "-o", "{tmp}/out"],
     {"assessopt.selection", "assessopt.report", "assessopt.matching"}),
], ids=["validate", "score", "errors", "simulate-1,2,3", "simulate-all"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command, options, loaded):
    """With ASSESS_OPT_LOG unset no command loads logging; selection and report
    load only where they run, and matching only for an exact engine."""
    options = [option.format(tmp=tmp_path) for option in options]
    run, _, modules = _fresh_main([command, *MINI_ARGS, *options])
    assert (run.returncode, run.stderr) == (0, "")
    assert modules == loaded
    if "1,2,3,exact-A,exact-C" in options:  # the golden run
        for name in OUTPUT_FILES:
            assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes()


# score's stderr on mini_university with ASSESS_OPT_LOG=INFO, as written when
# every module logged through logging.getLogger.
_SCORE_INFO = (
    "INFO assessopt: corpus: 12 researchers, 39 products, 43 authorships\n"
    "INFO assessopt: reference: 54 distributions, 2 merge-map entries\n"
    "INFO assessopt.gev: scored 43 authorships, 39 distinct (product, panel) pairs\n"
)


@pytest.mark.parametrize("level", [None, "INFO"], ids=["unset", "INFO"])
def test_log_lines_reach_stderr_only_on_request(tmp_path, level):
    """ASSESS_OPT_LOG=INFO writes every stage line and the reference decline
    line to stderr in a fresh process; unset, stderr stays empty and logging
    is never imported. The outputs are the same either way."""
    two_line = tmp_path / "two-line.csv"
    two_line.write_text(",".join(WORLDVALUE_COLUMNS) + '\ncitations,X,"2006\n",any,3\n',
                        encoding="utf-8")
    score, score_out, score_modules = _fresh_main(
        ["score", *MINI_ARGS, "-o", str(tmp_path / "scored.csv")], level)
    dist, dist_out, dist_modules = _fresh_main(
        ["build-dist", "--worldvalues", str(two_line), "-o", str(tmp_path / "t.csv")], level)
    assert (score.returncode, dist.returncode) == (0, 0)
    assert score_out == [f"scored 43 authorships to {tmp_path / 'scored.csv'}"]
    assert dist_out == [f"wrote 1 distributions to {tmp_path / 't.csv'}"]
    assert (tmp_path / "scored.csv").read_bytes() == (GOLDEN / "scored.csv").read_bytes()
    if level is None:
        assert (score.stderr, dist.stderr) == ("", "")
        assert score_modules == dist_modules == set()
    else:
        assert score.stderr == _SCORE_INFO
        assert dist.stderr == (
            f"INFO assessopt.reference: {two_line}:2: not a one-line record; reading row by row\n")
        assert score_modules == dist_modules == {"logging"}


def test_simulate_writes_all_outputs_and_matches_golden(tmp_path):
    out = tmp_path / "out"
    code = main([
        "simulate", *MINI_ARGS,
        "--scenarios", "1,2,3,exact-A,exact-C", "-o", str(out),
    ])
    assert code == 0
    for name in OUTPUT_FILES:
        produced = (out / name).read_bytes()
        expected = (GOLDEN / name).read_bytes()
        assert produced == expected, f"{name} deviates from the golden file"


def test_simulate_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main([
            "simulate", *MINI_ARGS,
            "--scenarios", "1,2,3,exact-A,exact-C", "-o", str(out),
        ]) == 0
    for name in OUTPUT_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_builds_the_problem_once(tmp_path, monkeypatch):
    calls = []
    build_sets = selection.build_sets

    def counting(*args):
        calls.append(args)
        return build_sets(*args)

    monkeypatch.setattr(selection, "build_sets", counting)
    assert main([
        "simulate", *MINI_ARGS,
        "--scenarios", "1,2,3,exact-A,exact-C", "-o", str(tmp_path / "out"),
    ]) == 0
    assert len(calls) == 1


def test_failed_run_leaves_no_output_directory(tmp_path):
    for command in ("simulate", "report"):
        outdir = tmp_path / command / "out"
        assert main([
            command, "--corpus", str(tmp_path / "nonexistent"),
            "--profiles", str(MINI / "profiles.json"), "--ref", str(MINI / "ref"),
            "-o", str(outdir),
        ]) == 2
        assert not outdir.parent.exists()


def test_simulate_logs_each_stage(tmp_path, caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="assessopt")
    assert main(["simulate", *MINI_ARGS, "-o", str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("corpus: ") for m in messages)
    distributions = len(list(read_rows(MINI / "ref" / "thresholds.csv", THRESHOLD_COLUMNS)))
    merges = len(list(read_rows(MINI / "ref" / "mergemap.csv", MERGEMAP_COLUMNS)))
    assert f"reference: {distributions} distributions, {merges} merge-map entries" in messages
    assert any(m.startswith("scored ") for m in messages)
    rows = [fields for _, fields in read_rows(GOLDEN / "scored.csv", SCORED_COLUMNS)]
    pairs = {(product_id, routing_gev) for product_id, _, routing_gev, *_ in rows}
    assert len(pairs) < len(rows)  # the fixture has co-authors on one panel
    assert (f"scored {len(rows)} authorships, {len(pairs)} distinct (product, panel) pairs"
            in messages)
    assert [(r.name, r.funcName) for r in caplog.records
            if r.getMessage().startswith("scored ")] == [("assessopt.gev", "score_corpus")]
    assert any("active researchers" in m for m in messages)
    for tag in selection.SCENARIO_TAGS:
        assert f"{tag}: total score" in stdout
        assert any(m.startswith(f"{tag}: total score") for m in messages)
    assert any(m.startswith("exact-C: ") and "augmenting paths" in m for m in messages)
    for name in OUTPUT_FILES:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_simulate_exact_only(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", *MINI_ARGS, "--scenarios", "exact-C", "-o", str(out)]) == 0
    lines = (out / "selection.csv").read_text(encoding="utf-8").splitlines()
    tags = {line.split(",")[0] for line in lines[1:]}
    assert tags == {"exact-C"}
    assert (out / "report.md").exists()
    assert not (out / "report.csv").exists()  # needs all three scenarios


def test_quota_zero_researcher_absent_from_selection(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", *MINI_ARGS, "--scenarios", "1", "-o", str(out)]) == 0
    text = (out / "selection.csv").read_text(encoding="utf-8")
    assert ",R04," not in text


def test_score_subcommand(tmp_path):
    out = tmp_path / "scored.csv"
    assert main(["score", *MINI_ARGS, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "scored.csv").read_bytes()


def test_errors_subcommand(tmp_path):
    out = tmp_path / "errors.csv"
    assert main(["errors", *MINI_ARGS, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "errors.csv").read_bytes()


def test_report_subcommand(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", *MINI_ARGS, "-o", str(out)]) == 0
    assert (out / "report.md").read_bytes() == (GOLDEN / "report.md").read_bytes()
    assert not (out / "scored.csv").exists()


def test_report_writes_what_simulate_writes_minus_the_csvs(tmp_path, capsys):
    sim, rep = tmp_path / "sim", tmp_path / "rep"
    assert main(["simulate", *MINI_ARGS, "-o", str(sim)]) == 0
    capsys.readouterr()
    assert main(["report", *MINI_ARGS, "-o", str(rep)]) == 0
    assert capsys.readouterr().out == f"report written to {rep}\n"
    assert sorted(path.name for path in rep.iterdir()) == ["report.csv", "report.md"]
    for name in ("report.md", "report.csv"):
        assert (rep / name).read_bytes() == (sim / name).read_bytes()


def test_report_tables_agree_on_products_due(tmp_path):
    # a peer-review-only researcher takes part in no selection
    root = tmp_path / "in"
    shutil.copytree(MINI, root)
    with open(root / "researchers.csv", "a", encoding="utf-8") as fh:
        fh.write("R13,L-ANT/01,10,3\n")
    out = tmp_path / "out"
    assert main([
        "report", "--corpus", str(root),
        "--profiles", str(root / "profiles.json"), "--ref", str(root / "ref"), "-o", str(out),
    ]) == 0
    lines = (out / "report.md").read_text(encoding="utf-8").splitlines()
    totals = [line.split(" | ")[1] for line in lines if line.startswith("| Total |")]
    assert len(totals) == 2  # scenario table, error table
    assert totals[0] == totals[1]
    assert not any(line.startswith("| 10 |") for line in lines)


def test_bench_traced_names_are_callable():
    """bench/trace_cli.py wraps stage functions by name, and a name it cannot
    find only counts as trace.missing; a rename has to fail here instead."""
    path = Path(__file__).parent.parent / "bench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    for module_name, attr, _ in trace_cli.TARGETS:
        module = importlib.import_module(f"assessopt.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    assert trace_cli.RUNNERS.keys() == selection.RUNNERS.keys()


def test_window_override_rejects_uncovered_years(tmp_path, capsys):
    # default profile bands stop at 2010, so a wider window must fail validation
    code = main(["validate", *MINI_ARGS, "--window", "2004:2012"])
    assert code == 1
    assert "2011" in capsys.readouterr().err


def test_window_reaches_scoring(tmp_path, capsys):
    """Outside a narrower window every product not proven fraudulent scores as
    inadmissible, and nothing else changes."""
    wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
    assert main(["score", *MINI_ARGS, "-o", str(wide)]) == 0
    assert main(["score", *MINI_ARGS, "--window", "2006:2009", "-o", str(narrow)]) == 0
    assert main(["validate", *MINI_ARGS, "--window", "2006:2009"]) == 0
    capsys.readouterr()
    year = {row[0]: row[2] for _, row in read_rows(MINI / "products.csv", PRODUCT_COLUMNS)}
    wide_rows = [row for _, row in read_rows(wide, SCORED_COLUMNS)]
    narrow_rows = [row for _, row in read_rows(narrow, SCORED_COLUMNS)]
    assert len(wide_rows) == len(narrow_rows)
    changed = set()
    for before, after in zip(wide_rows, narrow_rows):
        if not 2006 <= year[before[0]] <= 2009 and before[3] != "fraud":
            assert after == [*before[:3], "inadmissible", -1.0, False]
        else:
            assert after == before
        if after != before:
            changed.add(before[0])
    assert {"P14", "P23", "P30"} <= changed


def test_bad_scenario_flag():
    try:
        main(["simulate", *MINI_ARGS, "--scenarios", "9", "-o", "/tmp/x"])
    except SystemExit as exc:  # argparse rejects the value
        assert exc.code == 2
    else:
        raise AssertionError("expected SystemExit")
