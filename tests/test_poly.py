"""Exact sparse polynomial arithmetic, formatting and shape classification."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayleigh_kit.poly import (
    GGHH,
    GGHI,
    GHIJ,
    PACKED_BITS,
    Polynomial,
    add_products,
    add_square,
    dominates,
    format_packed,
    format_polynomial,
    from_packed,
    pack_mask,
    pack_shape,
    packed_shapes,
    parse_polynomial,
    reciprocal_transform,
)
from rayleigh_kit.poly import _monomial_table


def y(name):
    return Polynomial.variable(name)


def test_zero_and_constants():
    assert Polynomial.zero().is_zero
    assert not Polynomial.constant(3).is_zero
    assert Polynomial.constant(0).is_zero
    assert Polynomial.constant(Fraction(4, 2)) == Polynomial.constant(2)
    assert len(Polynomial.constant(1)) == 1


def test_sum_of_variables():
    p = Polynomial.sum_of_variables(["3", "4", "5"])
    assert [mono for mono, _ in p.terms()] == [(("3", 1),), (("4", 1),), (("5", 1),)]
    assert p.coefficient({"4": 1}) == 1
    assert p.coefficient({"9": 1}) == 0


def test_arithmetic_basics():
    a, b = y("a"), y("b")
    assert (a + b) - b == a
    assert a - a == Polynomial.zero()
    assert 2 * a == a + a
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b) * (a + b) == a * a + 2 * a * b + b * b


def test_product_accumulates_same_monomial():
    # (ab + c)(ab + c): the cross terms target the same monomial and must add.
    a, b, c = y("a"), y("b"), y("c")
    p = a * b + c
    sq = p * p
    assert sq.coefficient({"a": 1, "b": 1, "c": 1}) == 2


def test_scalar_fraction_multiplication():
    p = y("a") * Fraction(1, 4)
    assert p.coefficient({"a": 1}) == Fraction(1, 4)
    assert (p * 4).coefficient({"a": 1}) == 1
    # integral Fractions normalize to int
    assert isinstance((p * 4).coefficient({"a": 1}), int)


def test_evaluate_exact():
    p = (y("a") + y("b")) * (y("a") + y("b"))
    assert p.evaluate({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == 1
    with pytest.raises(ValueError, match="missing assignment"):
        p.evaluate({"a": 1})


def test_canonical_term_order_golden():
    # graded-lex descending: the K4 difference renders in this exact order
    square = y("3") * y("4") - y("5") * y("6")
    p = square * square
    assert format_polynomial(p) == "+1 * y_3^2 y_4^2 -2 * y_3 y_4 y_5 y_6 +1 * y_5^2 y_6^2"


def test_format_zero_and_rationals():
    assert format_polynomial(Polynomial.zero()) == "0"
    assert format_polynomial(Polynomial.constant(Fraction(-1, 2))) == "-1/2"
    p = y("a") * Fraction(3, 4)
    assert format_polynomial(p) == "+3/4 * y_a"


def test_parse_round_trip_golden():
    text = "+1 * y_3^2 y_4^2 -2 * y_3 y_4 y_5 y_6 +1 * y_5^2 y_6^2"
    assert format_polynomial(parse_polynomial(text)) == text
    assert parse_polynomial("0").is_zero


@pytest.mark.parametrize("text", [
    "", "   ",  # no term at all
    "+1 * y_a^2^3", "+1 * y_a,b", "+1 * y_a*b",  # reserved characters in a name
    "+1 * y_a^+2", "+1_000", "+1/0", "+٣", "+1 * y_a^٢",  # what only int() reads
    "1", "+1 * y_a^", "+1 * y_^2", "+1 * y_a^0", "+1 *",
    "+2/4", "+01 * y_a", "+1 * y_a^01", "+1 * y_a^1", "-0",  # not as format writes it
    "+1 * y_a y_a", "+1 +1",  # a repeated variable or monomial
    "+1 * y_b y_a", "+1  *  y_a", " +1 * y_a ", "+1 * y_a^2 -0 * y_b", "+1e3",
])
def test_parse_rejects_text_that_format_never_writes(text):
    with pytest.raises(ValueError):
        parse_polynomial(text)


@st.composite
def polynomials(draw):
    names = ["1", "2", "3", "a"]
    n_terms = draw(st.integers(0, 5))
    p = Polynomial.zero()
    for _ in range(n_terms):
        coeff = draw(
            st.one_of(
                st.integers(-9, 9).filter(lambda v: v != 0),
                st.fractions(min_value=-3, max_value=3).filter(lambda v: v != 0),
            )
        )
        exps = {
            name: draw(st.integers(0, 3))
            for name in draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
        }
        p = p + Polynomial.monomial(exps, coeff)
    return p


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_text_round_trip(p):
    assert parse_polynomial(format_polynomial(p)) == p


def _reference_format(p):
    """`format_polynomial` before its per-monomial cache: every term is
    rendered afresh, a rational through its Fraction."""
    if p.is_zero:
        return "0"
    chunks = []
    for mono, coeff in p.terms():
        if isinstance(coeff, Fraction):
            sign = "+" if coeff > 0 else "-"
            piece = f"{sign}{abs(coeff.numerator)}/{coeff.denominator}"
        else:
            piece = f"{coeff:+d}"
        if mono:
            piece += " * " + " ".join(
                f"y_{var}" if exp == 1 else f"y_{var}^{exp}" for var, exp in mono
            )
        chunks.append(piece)
    return " ".join(chunks)


@given(polynomials())
@example(Polynomial.zero())
@example(Polynomial.constant(-7))
@example(Polynomial.constant(Fraction(5, 6)) + y("a") * Fraction(-3, 2) + y("1") * 4)
@settings(max_examples=80, deadline=None)
def test_format_matches_the_reference_renderer(p):
    assert format_polynomial(p) == _reference_format(p)
    assert format_polynomial(p) == _reference_format(p)  # from a warm cache


@given(
    st.dictionaries(st.integers(0, 4 ** 4 - 1), st.integers(-9, 9), max_size=8),
    st.sampled_from([1, 4]),
)
@example({}, 4)
@example({0: 6, 1: -3, 17: 8, 2: 0}, 4)
@settings(max_examples=80, deadline=None)
def test_format_packed_matches_the_reference_renderer(digits, den):
    # keys read as base-4 digits: four positions, exponents 0..3
    terms = {
        sum((k >> 2 * i & 3) << PACKED_BITS * i for i in range(4)): c
        for k, c in digits.items()
    }
    labels = ("b", "10", "2", "a")
    expected = from_packed(terms, labels) * Fraction(1, den)
    assert format_packed(terms, labels, den) == _reference_format(expected)


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_dominance_via_difference(p, q):
    diff = p - q
    expected = all(c >= 0 for _, c in diff.terms())
    assert dominates(p, q) == expected


def test_dominates_examples():
    a, b = y("a"), y("b")
    assert dominates(a + b, a)
    assert not dominates(a, a + b)
    assert dominates(Polynomial.zero(), Polynomial.zero())


def test_reciprocal_transform_reflects_exponents():
    p = y("a") * y("a") * y("b") + y("b")
    r = reciprocal_transform(p, scope=("a", "b", "c"), cap=2)
    # a^2 b -> b c^2 (a: 2->0, b: 1->1, c: 0->2); b -> a^2 b c^2
    assert r.coefficient({"b": 1, "c": 2}) == 1
    assert r.coefficient({"a": 2, "b": 1, "c": 2}) == 1
    # reflection is an involution on the scope
    assert reciprocal_transform(r, scope=("a", "b", "c"), cap=2) == p


def test_reciprocal_transform_errors():
    p = y("a") * y("a") * y("a")
    with pytest.raises(ValueError, match="exceeds cap"):
        reciprocal_transform(p, scope=("a",), cap=2)
    with pytest.raises(ValueError, match="outside scope"):
        reciprocal_transform(y("z"), scope=("a",), cap=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=4,
                unique=True),
       st.permutations([f"v{i}" for i in range(20)]))
def test_packed_monomials_match_polynomial_products(masks, labels):
    # position i of a packed monomial is the variable labels[i]; labels are
    # shuffled, so "v10" and "v2" sit in either order
    def poly(mask):
        return Polynomial.monomial({labels[i]: 1 for i in range(20) if mask >> i & 1})

    assert pack_mask(masks[0]) == sum(
        1 << PACKED_BITS * i for i in range(20) if masks[0] >> i & 1)
    product = add_products({}, [pack_mask(masks[0])], [pack_mask(m) for m in masks], -2)
    expected = sum((poly(masks[0]) * poly(m) * -2 for m in masks), Polynomial.zero())
    assert from_packed(product, labels) == expected
    root = {pack_mask(m): i + 1 for i, m in enumerate(masks)}
    linear = sum((poly(m) * (i + 1) for i, m in enumerate(masks)), Polynomial.zero())
    assert from_packed(add_square({}, root), labels) == linear * linear


def _reference_from_packed(terms, labels):
    """The decoder `from_packed` used before its decode table: every key's
    fields are read afresh, in label order."""
    order = sorted((label, PACKED_BITS * i) for i, label in enumerate(labels))
    field = (1 << PACKED_BITS) - 1
    clean = {}
    for key, coeff in terms.items():
        if coeff:
            mono = [(label, x) for label, shift in order if (x := key >> shift & field)]
            clean[tuple(mono)] = coeff
    return Polynomial(clean)


def test_from_packed_decode_table_matches_the_reference_decoder():
    rng = random.Random(20)
    ten = [str(i) for i in range(1, 11)]  # U_3_10 labels: "10" sorts before "2"
    label_tuples = [
        tuple("abcdefgh"),  # label order is position order
        tuple(ten),
        tuple(reversed(ten)),  # reversed ids
    ]

    def random_terms(n):
        keys = {
            sum(rng.randrange(5) << PACKED_BITS * i for i in range(n))
            for _ in range(60)
        }
        return {key: rng.choice([-3, -1, 0, 1, 2, Fraction(1, 4)]) for key in keys}

    def check(terms, labels):
        got, want = from_packed(terms, labels), _reference_from_packed(terms, labels)
        assert list(got.terms()) == list(want.terms())
        assert list(got.term_map().items()) == list(want.term_map().items())

    inputs = [(random_terms(len(labels)), labels) for labels in label_tuples]
    # the same terms over the same label set in two orders, one after the
    # other: a table shared between the orders would decode the second wrongly
    shared = random_terms(5)
    inputs += [(shared, ("3", "1", "2", "5", "4")), (shared, ("5", "4", "1", "3", "2"))]
    for _ in range(2):  # the second round reads every key from a warm table
        for terms, labels in inputs:
            check(terms, labels)
    assert _monomial_table.cache_info().maxsize is not None
    _monomial_table.cache_clear()
    for terms, labels in inputs:
        check(terms, labels)


_SIX = ("1", "2", "10", "a", "b", "c")  # "10" sorts between "1" and "2"
_six_packed_terms = st.dictionaries(
    st.lists(st.integers(0, 4), min_size=6, max_size=6).map(
        lambda exps: sum(x << PACKED_BITS * i for i, x in enumerate(exps))),
    st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 4), Fraction(-3, 2)]),
    max_size=12,
)


def _relabelled(terms, before, after):
    """The packed terms whose fields move from the positions of `before` to
    those of `after`, so each term keeps its monomial."""
    field = (1 << PACKED_BITS) - 1
    moves = [(PACKED_BITS * i, PACKED_BITS * after.index(label))
             for i, label in enumerate(before)]
    return {sum((key >> old & field) << new for old, new in moves): coeff
            for key, coeff in terms.items()}


@settings(max_examples=150, deadline=None)
@given(_six_packed_terms, _six_packed_terms,
       st.permutations(_SIX), st.permutations(_SIX))
def test_packed_polynomials_agree_with_the_reference_decoder(a, b, order1, order2):
    order1, order2 = tuple(order1), tuple(order2)
    changed = dict(a)
    if a:
        key = min(a)
        changed[key] = a[key] + 1  # one coefficient off, maybe to 0
    inputs = [(terms, labels) for terms in (a, b, changed) for labels in (order1, order2)]
    inputs.append((_relabelled(a, order1, order2), order2))  # a over order1 again
    point = {label: Fraction(i + 2, 3) for i, label in enumerate(_SIX)}
    for terms, labels in inputs:
        got, want = from_packed(terms, labels), _reference_from_packed(terms, labels)
        assert len(got) == len(want)  # read off the packed terms
        assert got.is_zero == want.is_zero
        assert list(got.terms()) == list(want.terms())  # decodes got
        assert got.evaluate(point) == want.evaluate(point)
        assert format_polynomial(got) == format_polynomial(want)
    # Each comparison on fresh results, so both sides are still packed: over
    # one label tuple it compares packed keys, over two it decodes.
    for (t1, l1), (t2, l2) in itertools.product(inputs, repeat=2):
        want = _reference_from_packed(t1, l1) == _reference_from_packed(t2, l2)
        assert (from_packed(t1, l1) == from_packed(t2, l2)) is want
        assert (from_packed(t1, l1) != from_packed(t2, l2)) is not want
        assert (from_packed(t1, l1) == _reference_from_packed(t2, l2)) is want


def test_is_packed_shape():
    # a packed key is a shape iff it lies in packed_shapes: every exponent
    # vector a field can hold at positions 0, 1, 6 and 9
    positions = (0, 1, 6, 9)
    shapes = packed_shapes(10)
    for exps in itertools.product(range(1 << PACKED_BITS), repeat=4):
        key = sum(x << PACKED_BITS * p for x, p in zip(exps, positions))
        assert (key in shapes) == (sum(exps) == 4 and max(exps) <= 2), exps
    assert len(shapes) == 45 + 10 * 36 + 210  # GGHH, GGHI and GHIJ over 10


def test_pack_shape_matches_polynomial_monomial():
    labels = [f"v{i}" for i in range(12)]
    for kind, positions, exps in (
        (GGHH, (11, 2), (2, 2)),
        (GGHI, (3, 0, 10), (2, 1, 1)),
        (GHIJ, (9, 1, 4, 7), (1, 1, 1, 1)),
    ):
        key = pack_shape(kind, positions)
        assert key in packed_shapes(12)
        expected = Polynomial.monomial({labels[p]: x for p, x in zip(positions, exps)})
        assert from_packed({key: 1}, labels) == expected
    with pytest.raises(ValueError):
        pack_shape(GGHI, (0, 1))


def test_readme_library_tour_runs():
    # the README's code must name only API that exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "named(" in code and "certify(" in code
    exec(compile(code, "README.md", "exec"), {})


def test_immutability():
    p = y("a")
    with pytest.raises(AttributeError):
        p.new_field = 1


def test_copies_and_pickles_rebuild_equal_polynomials():
    from rayleigh_kit.catalog import named
    from rayleigh_kit.rayleigh import rayleigh_difference

    packed = rayleigh_difference(named("K4"), "1", "2")
    parsed = parse_polynomial("+1/2 * y_a^2 y_b -3 * y_c +1")
    assert packed._packed is not None and parsed._packed is None
    for p in (packed, parsed):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p
            assert format_polynomial(twin) == format_polynomial(p)
            # a packed polynomial is rebuilt through `from_packed`, still packed
            assert (twin._packed is not None) == (p is packed)
