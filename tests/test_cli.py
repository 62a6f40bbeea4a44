"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from operator import xor

import pytest

from rayleigh_kit.catalog import uniform
from rayleigh_kit.cli import main
from rayleigh_kit.matroid import Matroid, dumps_matroid, loads_matroid
from rayleigh_kit.rayleigh import PairContext, rayleigh_difference


K4_DELTA = "+1 * y_3^2 y_4^2 -2 * y_3 y_4 y_5 y_6 +1 * y_5^2 y_6^2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """Like run, but argparse rejections (SystemExit) become exit codes."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_delta_single_pair_golden(capsys):
    code, out, _ = run(capsys, "delta", "K4", "1", "2")
    assert code == 0
    assert out.strip() == K4_DELTA


def test_delta_pairs_flag(capsys):
    code, out, _ = run(capsys, "delta", "U_3_4", "--pairs", "1,2", "--pairs", "3,4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "delta {1,2}: +1 * y_3^2 y_4^2"
    assert lines[1] == "delta {3,4}: +1 * y_1^2 y_2^2"


def test_delta_json(capsys):
    code, out, _ = run(capsys, "delta", "K4", "--pairs", "1,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "rayleigh-kit/1"
    assert doc["kind"] == "delta"
    assert doc["pairs"][0]["delta"] == K4_DELTA


def test_verify_text_all_pairs(capsys):
    code, out, _ = run(capsys, "verify", "K4")
    assert code == 0
    assert "15/15 pairs certified" in out
    assert "NOT CERTIFIED" not in out


def test_verify_reports_reduction(capsys):
    code, out, _ = run(capsys, "verify", "fig1.I", "--pairs", "2,3")
    assert code == 0
    assert "pair {2,3}: certified (mode=reduced-ansatz, deleted [4])" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "U_3_4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "rayleigh-kit/1"
    assert doc["kind"] == "verify"
    assert doc["all_verified"] is True
    assert len(doc["reports"]) == 6
    assert all(r["verdict"] for r in doc["reports"])


def test_verify_exit_one_when_uncertified(capsys, tmp_path):
    # doubling an element defeats the square certificate (honest failure,
    # not a Rayleigh violation), which the exit code must reflect
    doc = {
        "elements": ["1", "2", "3", "4", "p"],
        "rank": 3,
        "bases": [
            ["1", "2", "3"], ["1", "2", "4"], ["1", "2", "p"],
            ["1", "3", "4"], ["1", "4", "p"],
            ["2", "3", "4"], ["2", "4", "p"],
        ],
    }
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--pairs", "1,2")
    assert code == 1
    assert "NOT CERTIFIED" in out
    assert "does not itself exhibit a negative point" in out


def test_verify_rank4_samples_without_violation(capsys):
    code, out, _ = run(capsys, "verify", "U_4_5", "--pairs", "1,2",
                       "--samples", "25")
    assert code == 0
    assert "unverified (rank > 4)" not in out
    assert "unverified (rank > 3): no negative point found in 25 samples" in out


def s8() -> Matroid:
    """S8, the binary matroid of [I4 | D] over GF(2): rank 4, not Rayleigh.

    D has rows 0111, 1011, 1101, 1111; a column is a 4-bit vector, and four
    columns form a basis when no nonempty subset of them sums to zero.
    """
    d_rows = ("0111", "1011", "1101", "1111")
    columns = [1 << 3 - i for i in range(4)] + [
        int("".join(row[c] for row in d_rows), 2) for c in range(4)
    ]
    elements = [str(i) for i in range(1, 9)]
    bases = [
        [elements[i] for i in quad]
        for quad in combinations(range(8), 4)
        if all(reduce(xor, (columns[i] for i in subset))
               for r in range(1, 5) for subset in combinations(quad, r))
    ]
    return Matroid.from_bases(elements, bases, rank=4)


def test_s8_violation_is_real(capsys, tmp_path):
    m = s8()
    assert len(m.basis_masks) == 48
    delta = rayleigh_difference(PairContext(m, "4", "8"))
    assert delta.evaluate({el: 1 for el in m.elements}) == -16
    path = tmp_path / "s8.json"
    path.write_text(dumps_matroid(m))

    code, out, _ = run(capsys, "verify", str(path), "--pairs", "4,8")
    assert code == 1
    prefix = "pair {4,8}: VIOLATION at y = "
    assert out.startswith(prefix)
    items = out.strip()[len(prefix):].split(", ")
    point = {el: Fraction(weight) for el, weight in (i.split("=") for i in items)}
    assert sorted(point) == sorted(m.elements)
    assert delta.evaluate(point) < 0

    code, out, _ = run(capsys, "sample", str(path), "--samples", "100", "--format", "json")
    assert code == 1
    violations = json.loads(out)["violations"]
    assert violations
    assert all(v["pair"] == ["4", "8"] for v in violations)


def test_unknown_catalog_name_exits_two(capsys):
    code, _, err = run(capsys, "verify", "fig9.XX")
    assert code == 2
    assert "error:" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error:" in err


def test_bad_pair_exits_two(capsys):
    code, _, err = run(capsys, "delta", "K4", "--pairs", "1")
    assert code == 2
    code, _, err = run(capsys, "delta", "K4", "--pairs", "1,9")
    assert code == 2
    code, _, err = run(capsys, "delta", "K4", "1")
    assert code == 2


def test_loops_are_removed_with_note(capsys, tmp_path):
    doc = {
        "elements": ["1", "2", "3", "z"],
        "rank": 2,
        "bases": [["1", "2"], ["1", "3"], ["2", "3"]],
    }
    path = tmp_path / "loopy.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--pairs", "1,2")
    assert code == 0
    assert "note: removed loops: z" in out


def test_certificate_json_default(capsys):
    code, out, _ = run(capsys, "certificate", "U_3_4", "--pairs", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "certificate-set"
    assert doc["reports"][0]["verdict"] is True
    assert doc["reports"][0]["ansatz"] == "+1/2 * y_3^2 y_4^2"


def test_tables_text_output(capsys):
    code, out, _ = run(capsys, "tables", "--family", "GHIJ")
    assert code == 0
    assert "MISMATCH" not in out
    assert "classification complete" in out
    assert "V{4,5}" in out


def test_tables_all_families(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert out.count("classification complete") == 3


def test_enumerate_writes_loadable_files(capsys, tmp_path):
    out_dir = tmp_path / "n5"
    code, out, _ = run(capsys, "enumerate", "5", "--out", str(out_dir))
    assert code == 0
    assert "n=5: 4 isomorphism classes" in out
    files = sorted(out_dir.iterdir())
    assert [p.name for p in files] == [
        f"simple_rank3_n5_class{i:03d}.json" for i in range(4)
    ]
    for p in files:
        m = loads_matroid(p.read_text())
        assert m.rank == 3 and m.n == 5


def test_enumerate_requires_out(capsys):
    code, _, err = run(capsys, "enumerate", "5")
    assert code == 2
    assert "requires --out" in err


def test_sample_text_deterministic(capsys):
    code1, out1, _ = run(capsys, "sample", "K4", "--samples", "40", "--seed", "3")
    code2, out2, _ = run(capsys, "sample", "K4", "--samples", "40", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checked 15 pairs x 40 samples = 600 exact comparisons (seed 3)" in out1
    assert "pass rate: 100.00%" in out1


def test_sample_json(capsys):
    code, out, _ = run(capsys, "sample", "U_3_5", "--samples", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "sample"
    assert doc["checks"] == 100
    assert doc["violations"] == []
    assert doc["pass_rate"] == "100.00"


def test_out_dir_receives_report_copy(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "U_3_4", "--pairs", "1,2",
                       "--format", "json", "--out", str(tmp_path))
    assert code == 0
    copy = (tmp_path / "verify.json").read_text()
    assert copy == out
    assert json.loads(copy)["all_verified"] is True


_LOAD = ("verify", "{path}")
_TOO_MANY = json.dumps(
    {"elements": [f"e{i}" for i in range(65)], "rank": 1, "bases": [["e0"]]}
)


@pytest.mark.parametrize("content, argv, reason", [
    (None, _LOAD, "Is a directory"),  # the path is a directory
    ("[" * 200000 + "]" * 200000, _LOAD, "maximum recursion depth"),
    ('{"elements": ["1", "2"], "rank": 1, "bases": [[["x"]]]}', _LOAD,
     "'bases' must be a list of lists of strings"),
    ('{"elements": [["1"], "2"], "rank": 1, "bases": [["2"]]}', _LOAD,
     "'elements' must be a list of strings"),
    ('{"elements": ["1", "2", "3"], "lines": [[["1"], "2", "3"]]}', _LOAD,
     "'lines' must be a list of lists of strings"),
    ('{"elements": ["1"], "rank": 0, "bases": []}', _LOAD, "empty basis family"),
    # `--pairs e,f` could not name an element id that holds a comma
    ('{"elements": ["a,b", "c", "d"], "lines": []}', _LOAD, "reserved character"),
    # JSON true and false are Python ints, but not ranks
    ('{"elements": ["a", "b"], "rank": true, "bases": [["a"], ["b"]]}', _LOAD,
     "'rank' must be a nonnegative integer"),
    ('{"elements": ["a", "b"], "rank": false, "bases": [[]]}', _LOAD,
     "'rank' must be a nonnegative integer"),
    ('{"elements": ["a", "a"], "rank": 1, "bases": [["a"]]}', _LOAD,
     "duplicate element ids"),
    (_TOO_MANY, _LOAD, "at most 64 elements supported"),
    # geometry files with one problem each
    ('{"elements": ["1", "2", "3", "4"], "lines": [["1", "2", "3"], ["1", "2", "4"]]}',
     _LOAD, "': not a linear space: lines ['1', '2', '3'] and ['1', '2', '4'] "
     "share two points\n"),
    ('{"elements": ["1", "2", "3", "4"], "lines": [["1", "2"]]}', _LOAD,
     "': not a linear space: line ['1', '2'] has fewer than 3 points\n"),
    ('{"elements": ["1", "2", "3", "4"], "lines": [["1", "2", "9"]]}', _LOAD,
     "': not a linear space: line ['1', '2', '9'] uses unknown points\n"),
    ('{"elements": ["1", "2", "3", "1"], "lines": []}', _LOAD,
     "': not a linear space: duplicate points\n"),
    ('{"elements": ["1", "2", "3", "4"], "lines": [["1", "2", "3"], ["3", "2", "1"]]}',
     _LOAD, "': not a linear space: duplicate line ['1', '2', '3']\n"),
    ('{"elements": ["1", "2"], "lines": []}', _LOAD,
     "': rank < 3: fewer than three points\n"),
    ('{"elements": ["1", "2", "3", "4"], "lines": [["1", "2", "3", "4"]]}', _LOAD,
     "': rank < 3: all points collinear\n"),
    # --out names an existing file, or a path below one
    ("", ("verify", "K4", "--out", "{path}"), "cannot write to --out"),
    ("", ("verify", "K4", "--out", "{path}/sub"), "cannot write to --out"),
    ("", ("enumerate", "4", "--out", "{path}"), "cannot write to --out"),
    # beyond the census bound
    ("", ("enumerate", "10", "--out", "{path}.d"), "n must be between 3 and 9, got 10\n"),
], ids=["directory", "deep-nesting", "list-basis-entry", "list-element-id",
        "list-line-entry", "empty-bases-rank-0", "comma-in-element-id", "rank-true",
        "rank-false", "duplicate-element-ids", "65-elements", "lines-share-two-points",
        "two-point-line", "unknown-point", "duplicate-points", "duplicate-line",
        "fewer-than-three-points", "all-points-collinear", "out-is-a-file",
        "out-below-a-file", "enumerate-out-is-a-file", "enumerate-10"])
def test_hostile_input_exits_two(capsys, tmp_path, content, argv, reason):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    argv = [arg.format(path=path) for arg in argv]
    code, out, err = run_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err


# 10,000 distinct lines of 60 points on 64, each leaving out four points, in
# sorted order: the first shares two points with every other line
_LONG_LINES = sorted(
    [f"p{i:02d}" for i in range(64) if i not in out]
    for out in islice(combinations(range(64), 4), 10_000)
)


@pytest.mark.parametrize("doc, reason", [
    ({"elements": [f"p{i}" for i in range(400)], "lines": []},
     "at most 64 elements supported\n"),
    ({"elements": ["1", "2", "3", "4"], "lines": [["1", "2", "3"]] * 2000},
     "not a linear space: " + "; ".join(["duplicate line ['1', '2', '3']"] * 3) + "\n"),
    # PG(4, 2) (the 155 lines {a, b, a ^ b} on the nonzero vectors of GF(2)^5)
    # plus a 32nd point, then 100,000 copies of one line on three more points
    ({"elements": [f"p{i:02d}" for i in range(1, 33)] + ["q1", "q2", "q3"],
      "lines": sorted({tuple(sorted((f"p{a:02d}", f"p{b:02d}", f"p{a ^ b:02d}")))
                       for a in range(1, 32) for b in range(1, 32) if a != b})
      + [("q1", "q2", "q3")] * 100_000},
     "not a linear space: " + "; ".join(["duplicate line ['q1', 'q2', 'q3']"] * 3) + "\n"),
    ({"elements": [f"p{i:02d}" for i in range(64)], "lines": _LONG_LINES[::-1]},
     "not a linear space: " + "; ".join(
         f"lines {_LONG_LINES[0]} and {_LONG_LINES[v]} share two points" for v in (1, 2, 3)
     ) + "\n"),
], ids=["400-points", "2000-copies-of-a-line", "linear-space-then-100000-copies",
        "10000-lines-of-60-points"])
def test_oversized_geometry_exits_two_quickly(capsys, tmp_path, doc, reason):
    # the point cap comes before any line is compared, at most three problems
    # are collected, and lines are compared through runs of copies and bit
    # sets of their point pairs, not pairwise
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith(reason)


def test_oversized_bases_exit_two_quickly(capsys, tmp_path):
    # exchange failures are collected lazily, at most three of them
    rng = random.Random(1200)
    elements = [str(i) for i in range(14)]
    bases = set()
    while len(bases) < 1200:
        bases.add(tuple(sorted(rng.sample(elements, 7), key=int)))
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"elements": elements, "rank": 7, "bases": sorted(bases)}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ": not a matroid: exchange fails" in err
    assert err.count("exchange fails") == 3
    text = dumps_matroid(uniform(7, 14))
    start = time.perf_counter()
    assert len(loads_matroid(text).basis_masks) == 3432
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ("sample", "K4", "--samples", "0"),
    ("sample", "K4", "--samples", "-3"),
    ("verify", "U_4_5", "--pairs", "1,2", "--samples", "0"),
])
def test_samples_below_one_exit_two(capsys, argv):
    code, out, err = run_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage:" in err and "--samples" in err


@pytest.mark.parametrize("argv", [
    ("delta", "K4", "--seed", "3"),
    ("tables", "--samples", "5"),
    ("enumerate", "5", "--seed", "1", "--out", "D"),
    ("certificate", "K4", "--all-pairs"),
])
def test_options_that_did_nothing_are_gone(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err
    assert not (tmp_path / "D").exists()


def test_verify_keeps_seed_and_samples(capsys):
    # `sample` keeps them too: see test_sample_text_deterministic
    code, out, _ = run(capsys, "verify", "U_4_5", "--seed", "1", "--samples", "40",
                       "--pairs", "1,2")
    assert code == 0
    assert out == ("pair {1,2}: unverified (rank > 3): "
                   "no negative point found in 40 samples\n")


# Renderers that no other in-process test runs, pinned byte for byte. `{tmp}`
# stands for a fresh directory; no output may contain it.
_PINNED_CALLS = (
    ("certificate", "fig2.III", "--format", "text"),
    ("certificate", "K4", "--format", "text", "--pairs", "1,2"),
    ("tables", "--format", "json"),
    ("enumerate", "5", "--format", "json", "--out", "{tmp}/n5"),
    ("verify", "U_4_6", "--format", "json", "--samples", "30", "--seed", "3"),
    ("sample", "{tmp}/s8.json", "--samples", "100", "--seed", "4"),
    ("delta", "K4", "1", "2", "--pairs", "1,3"),
)
_CLI_DIGEST = "f32aaa57137459958d4e0952ded61eba553a05ccfc340aebd08d608805d794bb"


def test_cli_outputs_match_the_pinned_digest(capsys, tmp_path):
    (tmp_path / "s8.json").write_text(dumps_matroid(s8()))
    digest = hashlib.sha256()
    for template in _PINNED_CALLS:
        argv = [arg.format(tmp=tmp_path) for arg in template]
        code, out, err = run(capsys, *argv)
        assert str(tmp_path) not in out + err
        files = []
        if "--out" in argv:
            out_dir = tmp_path / argv[argv.index("--out") + 1]
            files = [[p.name, p.read_text()] for p in sorted(out_dir.iterdir())]
        record = [list(template), code, out, err, files]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == _CLI_DIGEST
