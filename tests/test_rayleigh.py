"""Rayleigh differences, the three-term decomposition, and sampling."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_kit.catalog import enumerate_simple_rank3, named, uniform
from rayleigh_kit.certificate import ansatz_parts, certify, lemma33_reduce
from rayleigh_kit.matroid import Matroid, with_parallel_copy
from rayleigh_kit.poly import Polynomial, dominates, parse_polynomial
from rayleigh_kit.rayleigh import (
    _EXP_HIGH,
    _EXP_LOW,
    _MANTISSA_BITS,
    _SCALE_SHIFT,
    _draw_scaled_weights,
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


# Every public pair question as (call, whether it takes a third element g).
_PAIR_QUESTIONS = {
    "rayleigh_difference": (lambda m, e, f, g: rayleigh_difference(m, e, f), False),
    "closed_pair_filter": (lambda m, e, f, g: closed_pair_filter(m, e, f), False),
    "negative_correlation_check": (
        lambda m, e, f, g: negative_correlation_check(
            m, e, f, dict.fromkeys(m.elements, 1)), False),
    "negative_correlation_sample": (
        lambda m, e, f, g: negative_correlation_sample(m, pairs=[(e, f)], samples=1),
        False),
    "certify": (lambda m, e, f, g: certify(m, e, f), False),
    "lemma33_reduce": (lambda m, e, f, g: lemma33_reduce(m, e, f), False),
    "ansatz_parts": (ansatz_parts, True),
    "central_term": (central_term, True),
    "decomposition_check": (decomposition_check, True),
    "lemma31_injection": (lemma31_injection, True),
    "theta_dominance_check": (theta_dominance_check, True),
}


@pytest.mark.parametrize("name", _PAIR_QUESTIONS)
def test_every_pair_question_checks_the_pair_the_same_way(name):
    # e, then f, then distinctness; then g; each with the same message.
    question, takes_g = _PAIR_QUESTIONS[name]
    k4 = named("K4")
    unknown = r"^element '9' not in the ground set$"
    for e, f, g, message in [
        ("1", "9", "3", unknown),
        ("9", "1", "3", unknown),
        ("9", "8", "3", unknown),
        ("9", "9", "3", unknown),
        ("1", "1", "9", r"^pair elements must be distinct$"),
    ]:
        with pytest.raises(ValueError, match=message):
            question(k4, e, f, g)
    if takes_g:
        with pytest.raises(ValueError, match=unknown):
            question(k4, "2", "3", "9")
        for g in ("2", "3"):
            with pytest.raises(ValueError, match=(
                rf"^element '{g}' must differ from e and f \(distinct from the pair\)$"
            )):
                question(k4, "2", "3", g)


def test_rayleigh_difference_u34():
    # bases avoiding both pair elements do not exist, so the product of the
    # two single-element minors is the whole difference
    delta = rayleigh_difference(uniform(3, 4), "1", "2")
    assert delta == parse_polynomial("+1 * y_3^2 y_4^2")


def test_rayleigh_difference_k4_closed_form():
    # the difference for any pair of the wheel on four vertices is a
    # perfect square in the other matching pair
    delta = rayleigh_difference(named("K4"), "1", "2")
    expected = parse_polynomial("+1 * y_3^2 y_4^2 -2 * y_3 y_4 y_5 y_6 +1 * y_5^2 y_6^2")
    assert delta == expected
    y3, y4, y5, y6 = (Polynomial.variable(v) for v in "3456")
    square = y3 * y4 - y5 * y6
    assert delta == square * square


def test_central_term_validates_g():
    k4 = named("K4")
    with pytest.raises(ValueError, match="differ"):
        central_term(k4, "1", "2", "1")
    with pytest.raises(ValueError, match="ground set"):
        central_term(k4, "1", "2", "9")


def _central_term_reference(m, e, f, g):
    """Theta by the paper's formula: eight minors, four Polynomial products."""
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
                yield m, e, f, g


def test_central_term_matches_the_minor_formula():
    inputs = [m for n in range(3, 7) for m in enumerate_simple_rank3(n).classes]
    inputs += [with_parallel_copy(cls, x, str(n + 1))
               for n in (4, 5) for cls in enumerate_simple_rank3(n).classes
               for x in cls.elements]
    inputs += [uniform(1, 4), uniform(2, 5), uniform(4, 7), named("K4")]
    triples = [t for m in inputs for t in _triples(m)]
    assert len(triples) == 2334
    for triple in triples:
        assert central_term(*triple) == _central_term_reference(*triple), triple


def test_central_term_builds_no_minor(monkeypatch):
    minors = []
    real_minor = Matroid.minor

    def counted_minor(self, *args, **kwargs):
        minors.append(args)
        return real_minor(self, *args, **kwargs)

    monkeypatch.setattr(Matroid, "minor", counted_minor)
    doubled = with_parallel_copy(named("fig3.V"), "1", "7")
    for m in (named("K4"), doubled):
        for triple in _triples(m):
            central_term(*triple)
    assert minors == []
    _central_term_reference(doubled, "1", "7", "2")
    assert len(minors) == 8  # the counter sees the reference's minors


def test_decomposition_examples():
    k4 = named("K4")
    for e, f, g in [("1", "2", "3"), ("2", "3", "5"), ("1", "4", "6")]:
        assert decomposition_check(k4, e, f, g)
    m = uniform(3, 5)
    assert decomposition_check(m, "1", "2", "5")


def test_lemma31_injection_on_a_line():
    # {2,3,5} is a dependent triple (a line) of the wheel
    m = named("K4")
    records = lemma31_injection(m, "2", "3", "5")
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
        lemma31_injection(m, "1", "2", "3")
    with pytest.raises(ValueError, match="distinct"):
        lemma31_injection(m, "1", "2", "1")


def test_lemma31_detects_parallel_degeneracy():
    # when g is parallel to a pair element the swap leaves the basis family;
    # the run must fail loudly instead of recording a bad pair
    m = with_parallel_copy(uniform(3, 4), "1", "p")
    with pytest.raises(RuntimeError, match="non-basis"):
        lemma31_injection(m, "2", "p", "1")


def test_theta_dominance_on_dependent_triples():
    m = named("K4")
    assert theta_dominance_check(m, "2", "3", "5")
    assert theta_dominance_check(m, "2", "5", "3")
    with pytest.raises(ValueError, match="dependent"):
        theta_dominance_check(m, "1", "2", "3")


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.5, True])
def test_negative_correlation_check_takes_only_exact_weights(bad):
    # NaN passes no comparison, so it would slip past the positivity check
    # and report a violation that does not exist; floats compare inexactly.
    m = named("K4")
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        negative_correlation_check(m, "1", "2", dict.fromkeys(m.elements, bad))
    point = {el: Fraction(i + 1, 3) for i, el in enumerate(m.elements)}
    point["4"] = bad
    with pytest.raises(ValueError, match="'4' must be an int or a Fraction"):
        negative_correlation_check(m, "1", "2", point)
    assert negative_correlation_check(m, "1", "2", {el: 2 for el in m.elements})
    assert negative_correlation_check(
        m, "1", "2", dict.fromkeys(m.elements, Fraction(1, 3)))


def test_dyadic_points_stay_in_range():
    rng = random.Random(123)
    for _ in range(20):
        point = [Fraction(w, 1 << _SCALE_SHIFT) for w in _draw_scaled_weights(rng, 3)]
        for w in point:
            assert Fraction(1, 512) <= w < 512
            assert Fraction(1, 1000) <= w <= 1000
            # denominators are powers of two (exact dyadic rationals)
            assert w.denominator & (w.denominator - 1) == 0


def _reference_draws(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """(exponent, mantissa) pairs read through `getrandbits` alone: 5 bits at
    a time until a value below 18 comes up, then 19 bits."""
    draws = []
    for _ in range(count):
        r = rng.getrandbits(5)
        while r >= _EXP_HIGH - _EXP_LOW:
            r = rng.getrandbits(5)
        draws.append((_EXP_LOW + r, rng.getrandbits(_MANTISSA_BITS)))
    return draws


def test_exponent_draw_is_rejection_sampling_over_getrandbits():
    # `randrange(-9, 9)` draws what the reference reads, so a sampler that
    # reads its exponents that way keeps every pinned sample.
    assert (_EXP_LOW, _EXP_HIGH, _MANTISSA_BITS) == (-9, 9, 19)
    for seed in range(100):
        draws = _reference_draws(random.Random(seed), 300)
        rng = random.Random(seed)
        for k, mantissa in draws:
            assert rng.randrange(_EXP_LOW, _EXP_HIGH) == k
            assert rng.getrandbits(_MANTISSA_BITS) == mantissa
        assert _draw_scaled_weights(random.Random(seed), 300) == [
            ((1 << _MANTISSA_BITS) | mantissa) << (k - _EXP_LOW) for k, mantissa in draws
        ]


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


def test_sampler_shares_lists_between_pairs():
    # A pair listed twice or in both orders, and a pair sharing an element,
    # read the same per-bitmask basis lists: each listing of {4,8} violates
    # at exactly the samples where it does alone.
    m = s8()
    alone = negative_correlation_sample(m, pairs=[("4", "8")], samples=300, seed=4)
    expected = [v.sample_index for v in alone.violations]
    assert len(expected) == 39
    pairs = [("4", "8"), ("8", "4"), ("4", "8"), ("4", "5")]
    r = negative_correlation_sample(m, pairs=pairs, samples=300, seed=4)
    assert r.checks == 1200

    def indices(pair):
        return [v.sample_index for v in r.violations if v.pair == pair]

    assert indices(("4", "8")) == [s for s in expected for _ in range(2)]  # listed twice
    assert indices(("8", "4")) == expected
    assert indices(("4", "5")) == []


def test_sampler_cross_checks_one_pair_per_hundred_samples(monkeypatch):
    # Sample s = 100k re-checks pair k (cyclically) at that sample's point;
    # a disagreement with the exact path raises.
    import rayleigh_kit.rayleigh as rayleigh

    seen = []

    def recorded(m, e, f, point):
        seen.append((e, f, point))
        return True

    monkeypatch.setattr(rayleigh, "negative_correlation_check", recorded)
    m = named("K4")
    pairs = [("1", "2"), ("3", "4"), ("5", "6")]
    r = negative_correlation_sample(m, pairs=pairs, samples=401, seed=3)
    assert r.cross_checks == 5
    assert [(e, f) for e, f, _ in seen] == pairs + pairs[:2]
    assert all(sorted(point) == sorted(m.elements) for _, _, point in seen)
    monkeypatch.setattr(rayleigh, "negative_correlation_check", lambda *args: False)
    with pytest.raises(RuntimeError, match=r"disagrees .* pair \(1, 2\)"):
        negative_correlation_sample(m, pairs=pairs, samples=1)


def test_sampler_cross_check_keeps_its_own_verdict_on_a_loop_pair():
    # M_e vanishes for a loop e, so the exact path refuses the pair and the
    # cross-check falls back to the sampler's own verdict.  The CLI deletes
    # loops first; only the library reaches this.
    k4 = named("K4")
    m = Matroid(k4.elements + ("l",), 3, k4.basis_masks)
    with pytest.raises(ValueError, match="degenerate weights"):
        negative_correlation_check(m, "l", "1", {x: Fraction(1) for x in m.elements})
    r = negative_correlation_sample(m, pairs=[("l", "1"), ("1", "2")], samples=1)
    assert (r.cross_checks, r.checks, r.violations) == (1, 2, ())


def _k4_with_loop():
    k4 = named("K4")
    return Matroid(k4.elements + ("l",), 3, k4.basis_masks)


@pytest.mark.parametrize("m, pairs", [
    (uniform(0, 3), None),  # one empty basis: M_e = 0 for every e
    (uniform(1, 3), None),  # one element per basis, and no basis holds a pair
    (uniform(2, 3), None),  # one basis holds each pair
    (uniform(3, 3), None),  # one basis, holding every element and pair
    (_k4_with_loop(), None),  # no basis holds the loop
    (s8(), [("4", "8"), ("4", "5")]),  # {4,8} violates at some samples
], ids=["U_0_3", "U_1_3", "U_2_3", "U_3_3", "K4+loop", "S8"])
def test_sampler_verdicts_match_the_exact_check_on_edge_shapes(m, pairs):
    # The sampler reads each basis's and each bitmask's weights through one
    # getter, and on these shapes a getter reads no index or one.  At every
    # sample, every pair's verdict must be the exact check's at that point.
    pairs = pairs or list(combinations(m.elements, 2))
    for seed in (0, 1, 2):
        result = negative_correlation_sample(m, pairs=pairs, samples=40, seed=seed)
        violated = {(v.pair, v.sample_index): v.point for v in result.violations}
        rng = random.Random(seed)
        for s in range(40):
            point = {el: Fraction(w, 1 << _SCALE_SHIFT)
                     for el, w in zip(m.elements, _draw_scaled_weights(rng, m.n))}
            for pair in pairs:
                try:
                    ok = negative_correlation_check(m, *pair, point)
                except ValueError:
                    ok = True  # M_e or M vanishes, so M_ef * M = 0 <= M_e * M_f
                assert ((pair, s) not in violated) == ok, (seed, s, pair)
                if not ok:
                    assert violated[pair, s] == point
        assert result.checks == 40 * len(pairs)
    assert (result.violations != ()) == (m.n == 8)


def test_sampler_refuses_a_negative_count():
    m = named("K4")
    with pytest.raises(ValueError, match=r"^samples must be nonnegative, got -5$"):
        negative_correlation_sample(m, samples=-5)
    none = negative_correlation_sample(m, samples=0)
    assert (none.samples, none.checks, none.cross_checks) == (0, 0, 0)


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
    delta_val = rayleigh_difference(m, e, f).evaluate(point)
    m_e = minor_polynomial(m, (e,), ()).evaluate(point)
    m_f = minor_polynomial(m, (f,), ()).evaluate(point)
    m_ef = minor_polynomial(m, (e, f), ()).evaluate(point)
    m_all = generating_polynomial(m).evaluate(point)
    assert delta_val == m_e * m_f - m_ef * m_all


def test_theta_can_go_negative_on_independent_triples():
    # the central term of the wheel at the pair {1,2} with g=3 is -2 y4 y5 y6:
    # dependence of {e,f,g} is genuinely needed for nonnegativity
    m = named("K4")
    theta = central_term(m, "1", "2", "3")
    assert theta == parse_polynomial("-2 * y_4 y_5 y_6")
    assert not dominates(theta, Polynomial.zero())
