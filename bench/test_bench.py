"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import layers  # noqa: E402
import workloads as w  # noqa: E402
from tracer import Tracer, package_modules, self_times  # noqa: E402

from rayleigh_kit import catalog, certificate, matroid, poly, rayleigh  # noqa: E402


def _bindings():
    """Identity of every module- and class-level binding in the package."""
    snap = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
    for cls in (poly.Polynomial, matroid.Matroid):
        for attr, value in vars(cls).items():
            snap[(cls.__name__, attr)] = id(value)
    return snap


def test_wrappers_are_restored():
    import rayleigh_kit.cli  # noqa: F401  (patched too)

    before = _bindings()
    tracer = Tracer()
    layers.instrument(tracer)
    assert poly.Polynomial.__mul__.__wrapped__ is not None
    assert certificate.rayleigh_difference is rayleigh.rayleigh_difference
    assert certificate.rayleigh_difference.__wrapped__ is not None
    certificate.certify(catalog.named("K4"), "1", "2")
    tracer.restore()
    assert _bindings() == before
    assert not hasattr(poly.Polynomial.__mul__, "__wrapped__")
    assert tracer.calls["certificate.certify"] == 1
    assert tracer.calls["rayleigh.delta"] == 2
    assert tracer.calls["poly.mul"] > 0


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == {"a": 3.0 + 1.5, "b": 2.0 + 4.0, "c": 1.0}


def test_scaled_divides_by_the_nearby_calibration_samples():
    ref = w.REF_SLICE_S
    assert w.scaled([3.0], [ref, ref], 1, 1) == [3.0]
    assert w.scaled([3.0], [2 * ref, 2 * ref], 1, 1) == [1.5]
    # Three segments of two operations, samples at their borders; each
    # segment uses the median of the two samples on either side of it.
    samples = [ref, ref, 4 * ref, 4 * ref]
    assert w.scaled([1.0] * 6, samples, 2, 2) == pytest.approx(
        [1.0, 1.0, 1 / 2.5, 1 / 2.5, 1 / 4, 1 / 4])
    # With one sample on each side, only the samples bordering the segment.
    assert w.scaled([1.0] * 3, [ref, 3 * ref, ref, ref], 1, 1) == pytest.approx(
        [1 / 2, 1 / 2, 1.0])


def test_tracer_nesting_and_folding():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(x):
        return t_inner(t_inner(x))

    t_inner = tracer.wrap("inner", inner)
    t_outer = tracer.wrap("outer", outer)
    t_same = tracer.wrap("outer", lambda x: t_outer(x))
    assert t_same(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.calls == {"outer": 1, "inner": 2}
    times = tracer.self_times()
    assert times["inner"] == 2.0 and times["outer"] == 5.0 - 2.0


def test_failed_calls_are_counted_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.failed["boom"] == 1 and tracer.calls["boom"] == 1


def test_relabelling_seed_leaves_verdict_counts_unchanged():
    for inputs in (w.census_inputs(w.Tally(), ns=(5, 6)),
                   w.nonsimple_inputs(w.Tally(), ns=(4, 5))):
        groups, work = [], []
        for rng in (None, w.pass_rng(1, 0), w.pass_rng(2, 0), w.pass_rng(2, 1)):
            items = w.certify_items(inputs, rng)
            tally, tracer = w.Tally(), Tracer()
            layers.instrument(tracer)
            try:
                groups.append(w.certify_pass(items, tally).groups)
            finally:
                tracer.restore()
            # parallel_classes scans in ground-set order, so with parallel
            # elements its number of rank queries depends on the labelling.
            calls = {k: v for k, v in tracer.calls.items() if k != "matroid.rank"}
            work.append((calls, dict(tracer.counts)))
            assert tally.failed == 0, tally.reasons
        # Verdicts and the work done are the same under every relabelling.
        assert all(g == groups[0] for g in groups)
        assert all(x == work[0] for x in work)
        certified = sum(groups[0].values())
        assert certified == len(items) if inputs[0].certify_all else 0 < certified < len(items)


def test_same_seed_gives_same_inputs():
    inputs = w.nonsimple_inputs(w.Tally(), ns=(4,))
    first = w.certify_items(inputs, w.pass_rng(7, 0))
    again = w.certify_items(inputs, w.pass_rng(7, 0))
    other = w.certify_items(inputs, w.pass_rng(8, 0))
    key = lambda items: [(i.matroid, i.e, i.f, i.point) for i in items]  # noqa: E731
    assert key(first) == key(again) != key(other)


def test_wrong_known_answers_raise_failed_share(monkeypatch, tmp_path):
    monkeypatch.setitem(w.CENSUS_COUNTS, 5, 5)
    tally = w.Tally()
    w.census_inputs(tally, ns=())
    assert tally.failed == 1 and tally.attempted == len(w.CENSUS_COUNTS)

    monkeypatch.setattr(w, "K4_DELTA_12", {(("3", 2), ("4", 2)): 1})
    steps = [s for s in w.cli_steps(0, str(tmp_path)) if s.kind == "delta"]
    tally = w.Tally()
    w.cli_inprocess_pass(steps, tally)
    assert tally.failed == 1 and tally.attempted == 1

    # Claim that the ansatz certifies every non-simple pair: it does not.
    inputs = w.nonsimple_inputs(w.Tally(), ns=(4,))
    tally = w.Tally()
    result = w.certify_pass(w.certify_items(inputs, None), tally)
    assert tally.failed == 0
    wrong = [dataclasses.replace(i, certify_all=True) for i in inputs]
    tally = w.Tally()
    w.certify_pass(w.certify_items(wrong, None), tally)
    assert tally.failed == result.outcomes.count(False) > 0


def test_cli_session_steps_pass_their_checks_in_process(tmp_path):
    tally = w.Tally()
    steps = w.cli_steps(3, str(tmp_path))
    kinds = {s.kind for s in steps}
    assert kinds == {"enumerate", "tables", "verify", "certificate", "delta", "sample"}
    assert not any("--jobs" in s.argv for s in steps)
    quick = [s for s in steps if s.kind not in ("enumerate", "tables")]
    result, emitted = w.cli_inprocess_pass(quick, tally)
    assert tally.failed == 0, tally.reasons
    assert emitted > 0 and all(code == 0 for code, _ in result.outcomes)


def test_parse_terms_reads_the_printed_form():
    text = "+1 * y_3^2 y_4^2 -2 * y_3 y_4 y_5 y_6 +1 * y_5^2 y_6^2"
    assert w.parse_terms(text) == {
        (("3", 2), ("4", 2)): 1,
        (("3", 1), ("4", 1), ("5", 1), ("6", 1)): -2,
        (("5", 2), ("6", 2)): 1,
    }


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
