"""Acceptance gate: one pass/fail line per criterion, exact tolerances.

Each criterion prints `CRITERION n: PASS/FAIL - detail` to the terminal
(capture suspended) so the gate is visible in any pytest run, then asserts.
All comparisons are exact (integers / rationals); the only tolerances are
the stated runtime budgets.
"""

import contextlib
import io
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from rayleigh_kit.catalog import enumerate_simple_rank3, named, uniform
from rayleigh_kit.certificate import certify, table_coefficients
from rayleigh_kit.cli import main
from rayleigh_kit.matroid import Matroid
from rayleigh_kit.poly import Polynomial, dominates, reciprocal_transform
from rayleigh_kit.rayleigh import (
    decomposition_check,
    lemma31_injection,
    negative_correlation_sample,
    rayleigh_difference,
    theta_dominance_check,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _catalog(ns):
    for n in ns:
        for m in enumerate_simple_rank3(n).classes:
            yield n, m


def test_criterion_1_k4_closed_form(capsys):
    t0 = time.monotonic()
    delta = rayleigh_difference(named("K4"), "1", "2")
    y3, y4, y5, y6 = (Polynomial.variable(v) for v in "3456")
    square = y3 * y4 - y5 * y6
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        1,
        delta == square * square and elapsed < 1.0,
        f"K4 difference equals the matching square exactly ({elapsed:.2f}s < 1s)",
    )


def test_criterion_2_table_reproduction(capsys):
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(["tables"])
    reports = {fam: table_coefficients(fam) for fam in ("GGHH", "GGHI", "GHIJ")}
    ghij = {r.row.label: r for r in reports["GHIJ"].rows}
    gghi = {r.row.label: r for r in reports["GGHI"].rows}
    gghh_usage = {r.row.label: r for r in reports["GGHH"].rows}
    ok = (
        code == 0
        and all(r.all_match for r in reports.values())
        and ghij["IV{1,2}"].delta == -2
        and gghi["III{1,2},3"].delta == 2
        and set(gghh_usage["II{1,2}"].p_observed)
        == {Fraction(1, 2), Fraction(3, 4), Fraction(1)}
        and "MISMATCH" not in buf.getvalue()
    )
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        2,
        ok and elapsed < 10.0,
        "every difference-column entry matches and every observed Ansatz "
        f"coefficient is note-permitted ({elapsed:.2f}s < 10s)",
    )


def test_criterion_3_exhaustive_rank3_certificates(capsys):
    t0 = time.monotonic()
    pairs = 0
    ok = True
    for n, m in _catalog((3, 4, 5, 6, 7)):
        for e, f in combinations(m.elements, 2):
            pairs += 1
            if not certify(m, e, f).verdict:
                ok = False
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        3,
        ok and elapsed < 300.0,
        f"certificate verdict true for all {pairs} pairs over every simple "
        f"rank-3 class on <=7 points ({elapsed:.1f}s < 300s)",
    )


def test_criterion_4_decomposition_identity(capsys):
    t0 = time.monotonic()
    checked = 0
    ok = True
    for n, m in _catalog((3, 4, 5, 6)):
        for e, f in combinations(m.elements, 2):
            for g in m.elements:
                if g in (e, f):
                    continue
                checked += 1
                if not decomposition_check(m, e, f, g):
                    ok = False
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        4,
        ok and elapsed < 30.0,
        f"three-term expansion in y_g holds exactly for all {checked} "
        f"(matroid, pair, g) choices on <=6 points ({elapsed:.1f}s < 30s)",
    )


def test_criterion_5_injection_and_central_term(capsys):
    t0 = time.monotonic()
    triples = 0
    ok = True
    for n, m in _catalog((3, 4, 5, 6)):
        for e, f in combinations(m.elements, 2):
            for g in m.elements:
                if g in (e, f) or m.is_independent((e, f, g)):
                    continue
                triples += 1
                records = lemma31_injection(m, e, f, g)  # raises on any bad swap
                outputs = {(r.a1, r.a2) for r in records}
                if len(outputs) != len(records):
                    ok = False
                if any(
                    Counter(r.b1) + Counter(r.b2) != Counter(r.a1) + Counter(r.a2)
                    for r in records
                ):
                    ok = False
                if not theta_dominance_check(m, e, f, g):
                    ok = False
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        5,
        ok and triples > 0 and elapsed < 60.0,
        f"injection is injective and weight-preserving and the central term "
        f"is coefficientwise nonnegative for all {triples} dependent triples "
        f"on <=6 points ({elapsed:.1f}s < 60s)",
    )


def test_criterion_6_duality_reflection(capsys):
    checked = 0
    ok = True
    for n, m in _catalog((3, 4, 5, 6)):
        dual = m.dual()
        for e, f in combinations(m.elements, 2):
            checked += 1
            delta = rayleigh_difference(m, e, f)
            delta_dual = rayleigh_difference(dual, e, f)
            scope = [x for x in m.elements if x not in (e, f)]
            if delta_dual != reciprocal_transform(delta, scope, 2):
                ok = False
    _report(
        capsys,
        6,
        ok,
        f"dual difference equals the exponent reflection (cap 2, variables "
        f"off the pair) for all {checked} pairs on <=6 points, exactly",
    )


def _loopless_rank_le2_instances(max_n: int):
    """All loopless rank <= 2 matroids on <= max_n elements, up to iso.

    Rank 1: a single parallel class.  Rank 2: any partition of the ground
    set into >= 2 parallel classes; bases are the cross-class pairs.
    """

    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part,) + rest

    for n in range(2, max_n + 1):
        els = [str(i) for i in range(1, n + 1)]
        yield Matroid.from_bases(els, [(e,) for e in els])  # rank 1
        for shape in partitions(n, n):
            if len(shape) < 2:
                continue
            classes = []
            start = 0
            for size in shape:
                classes.append(els[start : start + size])
                start += size
            bases = [
                (a, b)
                for i in range(len(classes))
                for j in range(i + 1, len(classes))
                for a in classes[i]
                for b in classes[j]
            ]
            yield Matroid.from_bases(els, bases)


def test_criterion_7_rank_le_two(capsys):
    instances = 0
    pairs = 0
    ok = True
    for m in _loopless_rank_le2_instances(8):
        instances += 1
        for e, f in combinations(m.elements, 2):
            pairs += 1
            delta = rayleigh_difference(m, e, f)
            if not dominates(delta, Polynomial.zero()):
                ok = False
    # rank-2 duals of the five-point rank-3 classes, same dominance
    for m in enumerate_simple_rank3(5).classes:
        dual = m.dual()
        for e, f in combinations(dual.elements, 2):
            pairs += 1
            if not dominates(
                rayleigh_difference(dual, e, f), Polynomial.zero()
            ):
                ok = False
    # corrected second-symmetric-function expansion for the five-point line,
    # against the brute-force difference
    m = uniform(2, 5)
    expected = Polynomial.zero()
    rest = ["3", "4", "5"]
    for i, a in enumerate(rest):
        for b in rest[i:]:
            expected = expected + Polynomial.variable(a) * Polynomial.variable(b)
    if rayleigh_difference(m, "1", "2") != expected:
        ok = False
    _report(
        capsys,
        7,
        ok,
        f"difference is coefficientwise nonnegative for {pairs} pairs over "
        f"{instances} loopless rank<=2 matroids on <=8 points plus duals, "
        "and the five-point-line expansion matches brute force exactly",
    )


def test_criterion_8_negative_correlation_sampling(capsys):
    checks = 0
    violations = 0
    for n, m in _catalog((3, 4, 5, 6)):
        result = negative_correlation_sample(m, samples=1000, seed=20260819)
        checks += result.checks
        violations += len(result.violations)
    _report(
        capsys,
        8,
        violations == 0 and checks > 0,
        f"negative correlation holds at every one of {checks} exact "
        "dyadic-weight comparisons (1000 seeded samples per matroid, "
        f"{violations} failures)",
    )


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_kit.cli", *args],
        capture_output=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_byte_deterministic_reports(capsys, tmp_path):
    commands = [
        ["verify", "K4", "--format", "json"],
        ["verify", "fig2.III", "--format", "text"],
        ["sample", "fig3.V", "--samples", "200", "--seed", "11"],
        ["sample", "U_4_6", "--samples", "60", "--seed", "5", "--format", "json"],
        ["tables"],
        ["delta", "K4", "--format", "json"],
        ["certificate", "fig3.VII", "--pairs", "1,2"],
    ]
    ok = True
    for args in commands:
        code1, out1 = _run_cli(args)
        code2, out2 = _run_cli(args)
        if code1 != code2 or out1 != out2 or not out1:
            ok = False
    dirs = []
    for run_dir in ("a", "b"):
        out_dir = tmp_path / run_dir
        code, _ = _run_cli(["enumerate", "6", "--out", str(out_dir)])
        if code != 0:
            ok = False
        dirs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        )
    if dirs[0] != dirs[1]:
        ok = False
    _report(
        capsys,
        9,
        ok,
        f"{len(commands)} seeded command invocations and the class files "
        "are byte-identical across independent processes",
    )
