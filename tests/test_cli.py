"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from importlib import import_module
from itertools import combinations, islice
from operator import xor
from pathlib import Path

import pytest

import rayleigh_kit
from rayleigh_kit.catalog import uniform
from rayleigh_kit.cli import build_parser, main
from rayleigh_kit.matroid import Matroid, dumps_matroid, loads_matroid
from rayleigh_kit.rayleigh import rayleigh_difference


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
    delta = rayleigh_difference(m, "4", "8")
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

    code, out, _ = run(capsys, "verify", str(path), "--pairs", "4,8", "--samples", "100",
                       "--seed", "4", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_verified"] is False
    (report,) = doc["reports"]
    assert (report["pair"], report["status"]) == (["4", "8"], "violation")
    point = {el: Fraction(weight) for el, weight in report["violation_point"].items()}
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
    for name in ("U_01_4", "U_1_04"):
        code, out, err = run(capsys, "verify", name)
        assert (code, out) == (2, "")
        assert f"{name!r} is neither a file nor a catalog name" in err


def test_out_of_range_uniform_name_says_why(capsys):
    # The name is in U_r_m form, so the reason is the range, not the catalog.
    for name, reason in (("U_3_17", "uniform matroids are capped at 16 elements"),
                         ("U_5_3", "no uniform matroid of rank 5 on 3 elements")):
        code, out, err = run(capsys, "verify", name)
        assert (code, out) == (2, "")
        assert reason in err
        assert "neither a file nor a catalog name" not in err


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
    # usage is checked before MATROID is read: the missing F is the error
    for source in ("K4", "missing.json"):
        code, out, err = run(capsys, "delta", source, "1")
        assert (code, out, err) == (2, "", "error: give both elements: delta MATROID E F\n")


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


@pytest.mark.parametrize("argv", [
    ("delta", "{path}", "a", "z"),
    ("verify", "{path}", "--pairs", "a,z"),
    ("certificate", "{path}", "--pairs", "z,b"),
    ("sample", "{path}", "--pairs", "a,z"),
])
def test_a_pair_naming_a_loop_says_so(capsys, tmp_path, argv):
    # z is in the file, so "not in the ground set" would be wrong.
    path = tmp_path / "loop.json"
    path.write_text('{"elements": ["a", "b", "z"], "rank": 1, "bases": [["a"], ["b"]]}')
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err == (
        "error: element 'z' is a loop of the input; loops are removed before any check\n"
    )


def test_certificate_json_default(capsys):
    code, out, _ = run(capsys, "certificate", "U_3_4", "--pairs", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "certificate-set"
    assert doc["reports"][0]["verdict"] is True
    assert doc["reports"][0]["ansatz"] == "+1/2 * y_3^2 y_4^2"


def test_certificate_above_rank_three_exits_two(capsys):
    code, out, err = run(capsys, "certificate", "U_4_6")
    assert (code, out) == (2, "")
    assert err == "error: certificate Ansatz undefined above rank 3\n"


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


@pytest.mark.parametrize(
    "argv",
    [["verify", "K4"], ["delta", "K4"], ["certificate", "K4"], ["tables"],
     ["enumerate", "5"], ["sample", "K4"]],
    ids=lambda argv: argv[0],
)
def test_help_names_the_format_default(capsys, argv):
    default = build_parser().parse_args(argv).format
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"output format (default {default})" in out
    if argv[0] == "enumerate":
        assert "--out DIR is required" in out
        assert "write the class files into DIR (required)" in out
    else:
        # the copy main() writes: DIR/<command>.json or DIR/<command>.txt
        assert (f"also write a copy of the report to DIR/{argv[0]}.json (--format json) "
                f"or DIR/{argv[0]}.txt (--format text)") in out


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


@pytest.mark.parametrize("argv", [
    ("certificate", "bowtie7", "--pairs", "1,3", "--format", "text"),
    ("verify", "K4", "--pairs", "1,2", "--format", "json"),
    ("delta", "fig1.I", "--pairs", "2,3"),
], ids=lambda argv: argv[0])
def test_main_writes_exactly_the_lines_a_subcommand_returns(capsys, argv):
    # a subcommand prints nothing, even while its lines are read
    args = build_parser().parse_args(argv)
    code, lines = args.func(args)
    lines = list(lines)
    assert capsys.readouterr() == ("", "")
    assert lines
    assert run(capsys, *argv) == (code, "".join(f"{line}\n" for line in lines), "")


def test_out_dir_receives_report_copy(capsys, tmp_path):
    # every report subcommand, in both formats: DIR/<cmd>.<ext> is stdout
    for argv in (("verify", "U_3_4", "--pairs", "1,2"), ("delta", "K4", "1", "2"),
                 ("certificate", "fig1.I", "--pairs", "2,3"), ("tables", "--family", "GGHH"),
                 ("sample", "K4", "--samples", "20")):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            out_dir = tmp_path / f"{argv[0]}-{fmt}"
            code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(out_dir))
            assert (code, err) == (0, "")
            assert [p.name for p in out_dir.iterdir()] == [f"{argv[0]}.{ext}"]
            assert (out_dir / f"{argv[0]}.{ext}").read_bytes() == out.encode()
            if fmt == "json":
                assert json.loads(out)["kind"] in (argv[0], "certificate-set")


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
    ("", ("verify", "K4", "--out", ""), "cannot write to --out ''"),
    # beyond the census bound
    ("", ("enumerate", "11", "--out", "{path}.d"), "n must be between 3 and 10, got 11\n"),
], ids=["directory", "deep-nesting", "list-basis-entry", "list-element-id",
        "list-line-entry", "empty-bases-rank-0", "comma-in-element-id", "rank-true",
        "rank-false", "duplicate-element-ids", "65-elements", "lines-share-two-points",
        "two-point-line", "unknown-point", "duplicate-points", "duplicate-line",
        "fewer-than-three-points", "all-points-collinear", "out-is-a-file",
        "out-below-a-file", "enumerate-out-is-a-file", "out-is-empty", "enumerate-11"])
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


def test_broken_bases_file_keeps_no_cut_per_basis(capsys, tmp_path):
    # each cut is built on its first need and only its missing bases are
    # kept, so a broken family stops at the third failure having held a few
    # bit sets of |B| bits, not one per F = B1 - x (about 30 MB here)
    rng = random.Random(5000)
    elements = [str(i) for i in range(40)]
    bases = set()
    while len(bases) < 5000:
        bases.add(tuple(sorted(rng.sample(elements, 10), key=int)))
    bases = sorted(bases)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"elements": elements, "rank": 10, "bases": bases}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.count("exchange fails") == 3
    m = Matroid.from_bases(elements, bases, rank=10)
    tracemalloc.start()
    try:
        assert len(list(islice(m._exchange_failures(), 3))) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


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


def test_samples_not_an_integer_exit_two(capsys):
    code, out, err = run_exit(capsys, "sample", "K4", "--samples", "abc")
    assert code == 2
    assert out == ""
    assert err.endswith("error: argument --samples: must be an integer, got 'abc'\n")


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


# ---------------------------------------------------------------------------
# Package surface: what `import rayleigh_kit` offers, and what each
# subcommand imports.

# Every name the package exports.
_PUBLIC = {
    "matroid": ("Matroid", "from_geometry", "lines_of",
                "loads_matroid", "dumps_matroid", "with_parallel_copy"),
    "poly": ("GGHH", "GGHI", "GHIJ", "Polynomial", "dominates",
             "format_polynomial", "parse_polynomial", "reciprocal_transform"),
    "rayleigh": ("InjectionRecord", "central_term",
                 "closed_pair_filter", "decomposition_check",
                 "generating_polynomial", "lemma31_injection", "minor_polynomial",
                 "negative_correlation_check", "negative_correlation_sample",
                 "rayleigh_difference", "theta_dominance_check"),
    "catalog": ("EnumerationResult", "NamedInstance", "catalog_names",
                "enumerate_simple_rank3", "instance", "named", "uniform"),
    "certificate": ("AnsatzParts", "CertificateReport", "ReductionResult",
                    "ansatz_parts", "certify", "lemma33_reduce",
                    "table_coefficients"),
    "tables": ("TableReport",),
}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300)


def test_submodules_define_no_api_list():
    # The package init's `_EXPORTS` is the one list of public names.
    for module in (*_PUBLIC, "cli"):
        assert not hasattr(import_module(f"rayleigh_kit.{module}"), "__all__"), module


def test_public_api_is_unchanged():
    names = [name for group in _PUBLIC.values() for name in group]
    assert len(names) == 40
    assert sorted(rayleigh_kit.__all__) == sorted(names)
    assert set(names) <= set(dir(rayleigh_kit))
    for module, group in _PUBLIC.items():
        for name in group:
            assert getattr(rayleigh_kit, name) is getattr(
                import_module(f"rayleigh_kit.{module}"), name), name
    star: dict = {}
    exec("from rayleigh_kit import *", star)
    assert all(star[name] is getattr(rayleigh_kit, name) for name in names)
    # Deleted names: compare canonical forms, read the ansatz from
    # `certify` or `ansatz_parts`, and pass a pair as labels `(m, e, f)`.
    for gone in ("no_such_name", "is_isomorphic", "ansatz_polynomial", "PairContext"):
        with pytest.raises(AttributeError, match=gone):
            getattr(rayleigh_kit, gone)
    assert rayleigh_kit.__version__ == "0.1.0"
    # The README's library tour, in a fresh interpreter, where every name
    # is first resolved through the lazy package init.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    proc = _python(tour.split("```", 1)[0])
    assert proc.returncode == 0, proc.stderr


# Runs `python -m rayleigh_kit.cli ARGS` and then reports, on the last line
# of stderr, the package modules and `dataclasses` that the call imported.
_LOADED_AFTER_MAIN = """
import json, runpy, sys
try:
    runpy.run_module("rayleigh_kit.cli", run_name="__main__", alter_sys=True)
finally:
    loaded = [m for m in sys.modules
              if m.startswith("rayleigh_kit.") or m == "dataclasses"]
    print(file=sys.stderr)
    print(json.dumps(sorted(loaded)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loaded", [
    (("verify", "{tmp}/u35.json"), ("certificate", "matroid", "poly", "rayleigh")),
    (("certificate", "{tmp}/u35.json"), ("certificate", "matroid", "poly", "rayleigh")),
    (("verify", "K4"), ("catalog", "certificate", "matroid", "poly", "rayleigh")),
    (("certificate", "K4"), ("catalog", "certificate", "matroid", "poly", "rayleigh")),
    (("tables", "--family", "GGHH"),
     ("catalog", "certificate", "matroid", "poly", "rayleigh", "tables")),
    (("delta", "K4", "1", "2"), ("catalog", "matroid", "poly", "rayleigh")),
    (("sample", "K4", "--samples", "20"), ("catalog", "matroid", "poly", "rayleigh")),
    (("sample", "{tmp}/u35.json", "--samples", "20"), ("matroid", "poly", "rayleigh")),
    (("enumerate", "5", "--out", "{tmp}/n5"), ("catalog", "matroid")),
])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, argv, loaded):
    # A stray top-level import would silently bring back the start-up cost
    # of compiling modules a command never runs.
    (tmp_path / "u35.json").write_text(dumps_matroid(uniform(3, 5)))
    proc = _python(_LOADED_AFTER_MAIN, *(arg.format(tmp=tmp_path) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    modules = json.loads(proc.stderr.splitlines()[-1])
    assert modules == [f"rayleigh_kit.{name}" for name in loaded]
    # The coefficient tables are compiled by `tables` alone.
    assert ("rayleigh_kit.tables" in modules) == (argv[0] == "tables")


def test_importing_the_package_loads_no_submodule():
    proc = _python("import sys, rayleigh_kit; "
                   "print(sorted(m for m in sys.modules if m.startswith('rayleigh_kit')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['rayleigh_kit']\n"


@pytest.mark.parametrize("argv", [
    ("verify", "K4"),
    ("tables", "--format", "json"),
    ("certificate", "K4", "--out", "{tmp}/report"),
    ("enumerate", "6", "--out", "{tmp}/n6"),
])
def test_a_closed_stdout_ends_the_run_quietly(tmp_path, argv):
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout always meets a closed pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rayleigh_kit.cli",
             *(arg.format(tmp=tmp_path) for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1
