"""Exact sparse polynomial arithmetic, formatting and shape classification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_kit.poly import (
    GGHH,
    GGHI,
    GHIJ,
    PACKED_BITS,
    MonomialShape,
    Polynomial,
    add_products,
    add_square,
    classify_shape,
    coefficient_of_shape,
    dominates,
    format_polynomial,
    from_packed,
    is_packed_shape,
    pack_mask,
    pack_shape,
    packed_variables,
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
    assert len(Polynomial.one()) == 1
    assert Polynomial.zero().total_degree() == -1
    assert Polynomial.one().total_degree() == 0


def test_sum_of_variables():
    p = Polynomial.sum_of_variables(["3", "4", "5"])
    assert p.variables() == ("3", "4", "5")
    assert p.coefficient({"4": 1}) == 1
    assert p.coefficient({"9": 1}) == 0


def test_arithmetic_basics():
    a, b = y("a"), y("b")
    assert (a + b) - b == a
    assert a - a == Polynomial.zero()
    assert 2 * a == a + a
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b
    assert (a + b) ** 0 == Polynomial.one()


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
    p = (y("a") + y("b")) ** 2
    assert p.evaluate({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == 1
    with pytest.raises(ValueError, match="missing assignment"):
        p.evaluate({"a": 1})


def test_substitute_partial():
    p = y("a") * y("b")
    q = p.substitute({"a": y("c") + 1})
    assert q == y("c") * y("b") + y("b")


def test_canonical_term_order_golden():
    # graded-lex descending: the K4 difference renders in this exact order
    p = (y("3") * y("4") - y("5") * y("6")) ** 2
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
    p = y("a") ** 2 * y("b") + y("b")
    r = reciprocal_transform(p, scope=("a", "b", "c"), cap=2)
    # a^2 b -> b c^2 (a: 2->0, b: 1->1, c: 0->2); b -> a^2 b c^2
    assert r.coefficient({"b": 1, "c": 2}) == 1
    assert r.coefficient({"a": 2, "b": 1, "c": 2}) == 1
    # reflection is an involution on the scope
    assert reciprocal_transform(r, scope=("a", "b", "c"), cap=2) == p


def test_reciprocal_transform_errors():
    p = y("a") ** 3
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

    assert pack_mask(masks[0]) == sum(1 << 4 * i for i in range(20) if masks[0] >> i & 1)
    assert sum(packed_variables(masks[0])) == pack_mask(masks[0])
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


def test_classify_shape():
    m22 = Polynomial.monomial({"g": 2, "h": 2})
    m211 = Polynomial.monomial({"g": 2, "h": 1, "i": 1})
    m1111 = Polynomial.monomial({"g": 1, "h": 1, "i": 1, "j": 1})
    (mono22,) = [m for m, _ in m22.terms()]
    (mono211,) = [m for m, _ in m211.terms()]
    (mono1111,) = [m for m, _ in m1111.terms()]
    assert classify_shape(mono22) == MonomialShape(GGHH, ("g", "h"))
    assert classify_shape(mono211) == MonomialShape(GGHI, ("g", "h", "i"))
    assert classify_shape(mono1111) == MonomialShape(GHIJ, ("g", "h", "i", "j"))
    (cube,) = [m for m, _ in (y("g") ** 3 * y("h")).terms()]
    assert classify_shape(cube) is None
    (deg3,) = [m for m, _ in (y("g") * y("h") * y("i")).terms()]
    assert classify_shape(deg3) is None
    # the packed test agrees with it on every exponent vector up to 15,
    # with the fields spread over positions 0, 1, 9 and 63
    positions = (0, 1, 9, 63)
    for exps in itertools.product(range(16), repeat=4):
        key = sum(x << 4 * p for x, p in zip(exps, positions))
        (mono, _), = Polynomial.monomial(
            {f"v{p}": x for x, p in zip(exps, positions)}).terms()
        assert is_packed_shape(key) == (classify_shape(mono) is not None), exps


def test_pack_shape_matches_monomial_shape():
    labels = [f"v{i}" for i in range(12)]
    for kind, positions in ((GGHH, (11, 2)), (GGHI, (3, 0, 10)), (GHIJ, (9, 1, 4, 7))):
        shape = MonomialShape(kind, tuple(labels[p] for p in positions))
        expected = Polynomial({shape.monomial(): 1})
        assert from_packed({pack_shape(kind, positions): 1}, labels) == expected
    with pytest.raises(ValueError):
        pack_shape(GGHI, (0, 1))


def test_coefficient_of_shape():
    p = (y("3") * y("4") - y("5") * y("6")) ** 2
    assert coefficient_of_shape(p, MonomialShape(GGHH, ("3", "4"))) == 1
    assert (
        coefficient_of_shape(p, MonomialShape(GHIJ, ("3", "4", "5", "6"))) == -2
    )


def test_immutability():
    p = y("a")
    with pytest.raises(AttributeError):
        p.new_field = 1
