"""Rayleigh differences, the three-term decomposition, and sampling."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_kit.catalog import enumerate_simple_rank3, named, uniform
from rayleigh_kit.matroid import Matroid, with_parallel_copy
from rayleigh_kit.poly import Polynomial, dominates, parse_polynomial
from rayleigh_kit.rayleigh import (
    PairContext,
    _SCALE_SHIFT,
    _draw_scaled_weight,
    central_term,
    closed_pair_filter,
    decomposition_check,
    generating_polynomial,
    lemma31_injection,
    minor_polynomial,
    negative_correlation_check,
    negative_correlation_sample,
    rayleigh_difference,
    theta_dominance_check,
)
import random

from test_cli import s8


def test_generating_polynomial_u24():
    m = uniform(2, 4)
    p = generating_polynomial(m)
    assert len(p) == 6
    assert p.coefficient({"1": 1, "2": 1}) == 1
    pairs = combinations("1234", 2)
    assert [mono for mono, _ in p.terms()] == [((a, 1), (b, 1)) for a, b in pairs]


def test_minor_polynomial_conventions():
    m = uniform(2, 4)
    # contracting a basis leaves the rank-0 minor with one empty basis
    assert minor_polynomial(m, ("1", "2"), ()) == Polynomial.constant(1)
    # contracting a dependent set gives the zero polynomial
    mp = with_parallel_copy(m, "1", "1p")
    assert minor_polynomial(mp, ("1", "1p"), ()).is_zero


def test_pair_context_validation():
    m = uniform(2, 4)
    with pytest.raises(ValueError, match="distinct"):
        PairContext(m, "1", "1")
    with pytest.raises(ValueError, match="ground set"):
        PairContext(m, "1", "9")


def test_rayleigh_difference_u34():
    # bases avoiding both pair elements do not exist, so the product of the
    # two single-element minors is the whole difference
    ctx = PairContext(uniform(3, 4), "1", "2")
    assert rayleigh_difference(ctx) == parse_polynomial("+1 * y_3^2 y_4^2")


def test_rayleigh_difference_k4_closed_form():
    # the difference for any pair of the wheel on four vertices is a
    # perfect square in the other matching pair
    ctx = PairContext(named("K4"), "1", "2")
    delta = rayleigh_difference(ctx)
    expected = parse_polynomial("+1 * y_3^2 y_4^2 -2 * y_3 y_4 y_5 y_6 +1 * y_5^2 y_6^2")
    assert delta == expected
    y3, y4, y5, y6 = (Polynomial.variable(v) for v in "3456")
    square = y3 * y4 - y5 * y6
    assert delta == square * square


def test_central_term_validates_g():
    ctx = PairContext(named("K4"), "1", "2")
    with pytest.raises(ValueError, match="differ"):
        central_term(ctx, "1")
    with pytest.raises(ValueError, match="ground set"):
        central_term(ctx, "9")


def _central_term_reference(ctx, g):
    """Theta by the paper's formula: eight minors, four Polynomial products."""
    m, e, f = ctx.matroid, ctx.e, ctx.f
    return (
        minor_polynomial(m, (e,), (f, g)) * minor_polynomial(m, (f, g), (e,))
        + minor_polynomial(m, (f,), (e, g)) * minor_polynomial(m, (e, g), (f,))
        - minor_polynomial(m, (g,), (e, f)) * minor_polynomial(m, (e, f), (g,))
        - minor_polynomial(m, (e, f, g), ()) * minor_polynomial(m, (), (e, f, g))
    )


def _triples(m):
    for e, f in combinations(m.elements, 2):
        for g in m.elements:
            if g not in (e, f):
                yield PairContext(m, e, f), g


def test_central_term_matches_the_minor_formula():
    inputs = [m for n in range(3, 7) for m in enumerate_simple_rank3(n).classes]
    inputs += [with_parallel_copy(cls, x, str(n + 1))
               for n in (4, 5) for cls in enumerate_simple_rank3(n).classes
               for x in cls.elements]
    inputs += [uniform(1, 4), uniform(2, 5), uniform(4, 7), named("K4")]
    triples = [t for m in inputs for t in _triples(m)]
    assert len(triples) == 2334
    for ctx, g in triples:
        assert central_term(ctx, g) == _central_term_reference(ctx, g), (ctx, g)


def test_central_term_builds_no_minor(monkeypatch):
    minors = []
    real_minor = Matroid.minor

    def counted_minor(self, *args, **kwargs):
        minors.append(args)
        return real_minor(self, *args, **kwargs)

    monkeypatch.setattr(Matroid, "minor", counted_minor)
    doubled = with_parallel_copy(named("fig3.V"), "1", "7")
    for m in (named("K4"), doubled):
        for ctx, g in _triples(m):
            central_term(ctx, g)
    assert minors == []
    _central_term_reference(PairContext(doubled, "1", "7"), "2")
    assert len(minors) == 8  # the counter sees the reference's minors


def test_decomposition_examples():
    k4 = named("K4")
    for e, f, g in [("1", "2", "3"), ("2", "3", "5"), ("1", "4", "6")]:
        assert decomposition_check(PairContext(k4, e, f), g)
    m = uniform(3, 5)
    assert decomposition_check(PairContext(m, "1", "2"), "5")


def test_lemma31_injection_on_a_line():
    # {2,3,5} is a dependent triple (a line) of the wheel
    m = named("K4")
    records = lemma31_injection(PairContext(m, "2", "3"), "5")
    assert len(records) == 6
    outputs = set()
    for r in records:
        assert r.b1 in m.bases and r.b2 in m.bases
        assert r.a1 in m.bases and r.a2 in m.bases
        assert r.branch in ("e∉L", "f∉L")
        # weight preservation: the multiset union of the pair is unchanged
        assert Counter(r.b1) + Counter(r.b2) == Counter(r.a1) + Counter(r.a2)
        outputs.add((r.a1, r.a2))
    assert len(outputs) == len(records)  # injective
    # the record count matches the two sides being paired off
    domain1 = [b for b in m.bases if "5" in b and "2" not in b and "3" not in b]
    domain2 = [b for b in m.bases if "2" in b and "3" in b and "5" not in b]
    assert len(records) == len(domain1) * len(domain2)


def test_lemma31_requires_dependent_triple():
    m = named("K4")
    with pytest.raises(ValueError, match="dependent"):
        lemma31_injection(PairContext(m, "1", "2"), "3")
    with pytest.raises(ValueError, match="distinct"):
        lemma31_injection(PairContext(m, "1", "2"), "1")


def test_lemma31_detects_parallel_degeneracy():
    # when g is parallel to a pair element the swap leaves the basis family;
    # the run must fail loudly instead of recording a bad pair
    m = with_parallel_copy(uniform(3, 4), "1", "p")
    with pytest.raises(RuntimeError, match="non-basis"):
        lemma31_injection(PairContext(m, "2", "p"), "1")


def test_theta_dominance_on_dependent_triples():
    m = named("K4")
    assert theta_dominance_check(PairContext(m, "2", "3"), "5")
    assert theta_dominance_check(PairContext(m, "2", "5"), "3")
    with pytest.raises(ValueError, match="dependent"):
        theta_dominance_check(PairContext(m, "1", "2"), "3")


def test_closed_pair_filter():
    m = named("K4")
    assert closed_pair_filter(m, "1", "2")  # a matching pair spans no line
    assert not closed_pair_filter(m, "2", "3")  # {2,3} spans the line {2,3,5}
    census = [m for n in range(3, 8) for m in enumerate_simple_rank3(n).classes]
    doubled = [with_parallel_copy(m, x, "p") for n in (4, 5, 6)
               for m in enumerate_simple_rank3(n).classes for x in m.elements]
    for m in census + doubled:
        for e, f in combinations(m.elements, 2):
            assert closed_pair_filter(m, e, f) == (m.closure((e, f)) == frozenset((e, f)))


def test_negative_correlation_check_exact():
    m = named("K4")
    ones = {el: 1 for el in m.elements}
    assert negative_correlation_check(m, "1", "2", ones)
    point = {el: Fraction(i + 1, 2) for i, el in enumerate(m.elements)}
    assert negative_correlation_check(m, "3", "6", point)


def test_negative_correlation_check_errors():
    m = named("K4")
    with pytest.raises(ValueError, match="positive"):
        negative_correlation_check(m, "1", "2", {el: 0 for el in m.elements})
    with pytest.raises(ValueError, match="missing"):
        negative_correlation_check(m, "1", "2", {"1": 1})
    loopy = Matroid.from_bases(["1", "2", "3"], [("1",), ("2",)])
    with pytest.raises(ValueError, match="degenerate"):
        negative_correlation_check(loopy, "3", "1", {"1": 1, "2": 1, "3": 1})
    ones = {el: 1 for el in m.elements}
    with pytest.raises(ValueError, match="distinct"):
        negative_correlation_check(m, "1", "1", ones)
    with pytest.raises(ValueError, match="not in the ground set"):
        negative_correlation_check(m, "1", "9", ones)


def test_dyadic_points_stay_in_range():
    rng = random.Random(123)
    for _ in range(20):
        point = [Fraction(_draw_scaled_weight(rng), 1 << _SCALE_SHIFT) for _ in range(3)]
        for w in point:
            assert Fraction(1, 512) <= w < 512
            assert Fraction(1, 1000) <= w <= 1000
            # denominators are powers of two (exact dyadic rationals)
            assert w.denominator & (w.denominator - 1) == 0


def test_sampler_is_deterministic_and_clean():
    m = named("K4")
    r1 = negative_correlation_sample(m, samples=50, seed=7)
    r2 = negative_correlation_sample(m, samples=50, seed=7)
    assert r1 == r2
    assert r1.violations == ()
    assert r1.samples == 50
    assert r1.checks == 15 * 50
    assert r1.cross_checks == 1  # one exact re-check per 100 samples


def test_sampler_pair_selection():
    m = named("K4")
    r = negative_correlation_sample(m, pairs=[("1", "2"), ("3", "4")], samples=10, seed=0)
    assert r.pairs == (("1", "2"), ("3", "4"))
    assert r.checks == 20
    with pytest.raises(ValueError, match="distinct"):
        negative_correlation_sample(m, pairs=[("1", "1")])
    with pytest.raises(ValueError, match="ground set"):
        negative_correlation_sample(m, pairs=[("1", "9")])
    empty = negative_correlation_sample(m, pairs=[], samples=5)
    assert empty.checks == 0 and empty.violations == ()


# SHA-256 over the repr of these SampleResults, taken while the sampler still
# tested every basis against e and f at every sample.  S8 has violations, so
# their points are pinned too.
_SAMPLE_DIGEST = "c931da8fcdcc1b5b493c447a6f26feaf5d1a67b5494da1219bc59f08d121fc7e"


def test_sampler_results_match_the_pinned_digest():
    cases = [
        (named("K4"), 1000, 1),
        (uniform(4, 7), 1000, 2),
        (uniform(5, 8), 400, 3),
        (s8(), 300, 4),
        (with_parallel_copy(named("fig3.V"), "1", "7"), 300, 5),
    ]
    digest = hashlib.sha256()
    violations = []
    for m, samples, seed in cases:
        result = negative_correlation_sample(m, samples=samples, seed=seed)
        violations.append(len(result.violations))
        digest.update(repr(result).encode())
    assert violations == [0, 0, 0, 39, 0]
    assert digest.hexdigest() == _SAMPLE_DIGEST


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_sampled_points_never_violate_u35(seed):
    r = negative_correlation_sample(uniform(3, 5), samples=20, seed=seed)
    assert r.violations == ()


def test_difference_matches_pointwise_values():
    # Delta evaluated at a point equals M_e M_f - M_ef M there
    m = named("fig3.VII")
    e, f = "1", "2"
    point = {el: Fraction(i + 2, 3) for i, el in enumerate(m.elements)}
    delta_val = rayleigh_difference(PairContext(m, e, f)).evaluate(point)
    m_e = minor_polynomial(m, (e,), ()).evaluate(point)
    m_f = minor_polynomial(m, (f,), ()).evaluate(point)
    m_ef = minor_polynomial(m, (e, f), ()).evaluate(point)
    m_all = generating_polynomial(m).evaluate(point)
    assert delta_val == m_e * m_f - m_ef * m_all


def test_theta_can_go_negative_on_independent_triples():
    # the central term of the wheel at the pair {1,2} with g=3 is -2 y4 y5 y6:
    # dependence of {e,f,g} is genuinely needed for nonnegativity
    m = named("K4")
    theta = central_term(PairContext(m, "1", "2"), "3")
    assert theta == parse_polynomial("-2 * y_4 y_5 y_6")
    assert not dominates(theta, Polynomial.zero())
