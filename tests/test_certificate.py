"""The sum-of-squares certificate: Ansatz, reduction, certification, tables."""

import copy
import hashlib
import json
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_kit import certificate, poly, rayleigh
from rayleigh_kit.catalog import enumerate_simple_rank3, named, uniform
from rayleigh_kit.certificate import (
    _check_closed_pair_structure,
    _pinned_key,
    _scan_matroids,
    _shape_supports,
    _squares,
    ansatz_parts,
    certify,
    lemma33_reduce,
    table_coefficients,
)
from rayleigh_kit.cli import main
from rayleigh_kit.matroid import (
    Matroid,
    canonical_form,
    from_geometry,
    line_masks,
    lines_of,
    with_parallel_copy,
)
from rayleigh_kit.poly import (
    Polynomial,
    dominates,
    format_polynomial,
    from_packed,
    pack_mask,
    parse_polynomial,
    shape_text,
)
from rayleigh_kit.rayleigh import (
    _DELTA,
    _products,
    _split,
    closed_pair_filter,
    lemma31_injection,
    minor_polynomial,
    rayleigh_difference,
)


def _reference_delta(m, e, f):
    """Delta from four minors and plain Polynomial products."""
    return (minor_polynomial(m, (e,), (f,)) * minor_polynomial(m, (f,), (e,))
            - minor_polynomial(m, (e, f), ()) * minor_polynomial(m, (), (e, f)))


@lru_cache(maxsize=1 << 12)
def _reference_flat(m, subset):
    """cl(subset) from the rank function."""
    r = m.rank_of(subset)
    return frozenset(x for x in m.elements if m.rank_of(subset + (x,)) == r)


def _reference_roots(m, e, f):
    """y_a*B_a - C_a*D_a for each a outside {e,f}, by label, with flats from
    the rank function."""
    roots = {}
    for a in m.elements:
        if a in (e, f):
            continue
        cl_ae, cl_af = _reference_flat(m, (a, e)), _reference_flat(m, (a, f))
        b_a = Polynomial.sum_of_variables(set(m.elements) - cl_ae - cl_af)
        c_a = Polynomial.sum_of_variables(cl_ae - {a, e})
        d_a = Polynomial.sum_of_variables(cl_af - {a, f})
        roots[a] = Polynomial.variable(a) * b_a - c_a * d_a
    return roots


def _kernel_four_p(m, e, f):
    """4P, the plain sum of the squares, read from the packed kernel."""
    squares = _squares(m, m.elements.index(e), m.elements.index(f))
    return from_packed(certificate._four_p_terms(squares), m.elements)


def test_packed_kernel_matches_the_polynomial_reference():
    census = [m for n in range(3, 8) for m in enumerate_simple_rank3(n).classes]
    copies = [with_parallel_copy(m, x, "p") for m in census for x in m.elements]
    k4 = named("K4")  # ids 1..6 become 9..4: reverse lexical order
    k4_reversed = Matroid([str(10 - int(x)) for x in k4.elements], 3, k4.basis_masks)
    rank3 = census + copies + [named("U_3_10"), k4_reversed]
    low_rank = [uniform(r, n) for r in (1, 2) for n in range(r, 7)] + [named("U_2_11")]
    for m in rank3 + low_rank:
        for e, f in combinations(m.elements, 2):
            assert rayleigh_difference(m, e, f) == _reference_delta(m, e, f)
            if m.rank == 3:
                squares = _squares(m, m.elements.index(e), m.elements.index(f))
                roots = _reference_roots(m, e, f)
                assert {m.elements[sq.a]: from_packed(sq.root, m.elements)
                        for sq in squares} == roots
                four_p = from_packed(certificate._four_p_terms(squares), m.elements)
                assert four_p == sum((r * r for r in roots.values()), Polynomial.zero())


def _check_structure(m, e, f, delta, four_p, squares):
    """`_check_closed_pair_structure` on the gap that certify cuts from
    these Delta and 4P terms."""
    gap = certificate._gap(delta, four_p)
    _check_closed_pair_structure(m, e, f, gap, four_p, squares)


def test_closed_pair_structure_check_on_packed_terms():
    m, e, f = named("K4"), 0, 1  # elements 1..6 sit at positions 0..5
    y = [pack_mask(1 << i) for i in range(6)]
    good = {2 * y[2] + 2 * y[3]: 1, y[2] + y[3] + y[4] + y[5]: -2}
    squares = _squares(m, e, f)
    _check_structure(m, e, f, good, good, squares)
    _check_structure(m, e, f, {3 * y[2]: 0}, good, squares)  # zero term
    bad_terms = [
        ({3 * y[2] + y[3]: 1}, good, r"delta monomial \(\('3', 3\), \('4', 1\)\) is not"),
        ({4 * y[2]: 1}, good, r"delta monomial \(\('3', 4\),\) is not"),
        (good, {y[2] + y[3] + y[4]: 1}, "ansatz monomial .* is not of shape"),
        (good, {y[0] + y[2] + y[3] + y[4]: 1}, "ansatz mentions e or f"),
        # a monomial checked once is still reported under the right label:
        # as delta's when nonzero in both, as the ansatz's when delta's is 0
        ({**good, 3 * y[2] + y[3]: 1}, {**good, 3 * y[2] + y[3]: 4},
         r"delta monomial \(\('3', 3\), \('4', 1\)\) is not"),
        ({**good, 3 * y[2] + y[3]: 0}, {**good, 3 * y[2] + y[3]: 4},
         r"ansatz monomial \(\('3', 3\), \('4', 1\)\) is not"),
    ]
    for delta, four_p, message in bad_terms:
        with pytest.raises(RuntimeError, match=message):
            _check_structure(m, e, f, delta, four_p, squares)
    for square, message in [
        (squares[0]._replace(u=squares[0].u | 1), "must exclude a, e, f"),
        (squares[0]._replace(l_af=squares[0].u), "overlap"),
    ]:
        with pytest.raises(RuntimeError, match=message):
            _check_structure(m, e, f, good, good, [square])


def _reference_structure_walk(m, e, f, delta, four_p):
    """The message `_check_closed_pair_structure` gives for these terms, or
    None, from a walk over the nonzero keys alone: Delta's, then 4P's, each
    set against the packed shapes and then its OR against the e and f
    fields."""
    pair = pack_mask(1 << e | 1 << f) * ((1 << poly.PACKED_BITS) - 1)
    shapes = poly.packed_shapes(m.n)
    names = " or ".join(map(shape_text, poly._SHAPE_EXPONENTS))
    for label, terms in (("delta", delta), ("ansatz", four_p)):
        keys = {key for key, coeff in terms.items() if coeff}
        if not keys <= shapes:
            mono = next(from_packed({min(keys - shapes): 1}, m.elements).terms())[0]
            return (f"internal invariant violated: {label} monomial {mono} "
                    f"is not of shape {names}")
        if any(key & pair for key in keys):
            return f"internal invariant violated: {label} mentions e or f"
    return None


@st.composite
def _pair_terms_cases(draw):
    """4..10 positions, a pair e, f, and Delta and 4P as packed terms with
    exponents 0..4 and zero coefficients: shapes that avoid e and f, other
    shapes, and any exponent vector."""
    n = draw(st.integers(4, 10))
    e, f = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    pair = pack_mask(1 << e | 1 << f) * ((1 << poly.PACKED_BITS) - 1)
    shapes = sorted(poly.packed_shapes(n))
    keys = st.one_of(
        st.sampled_from([key for key in shapes if not key & pair]),
        st.sampled_from(shapes),
        st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
            lambda exps: sum(x << poly.PACKED_BITS * i for i, x in enumerate(exps))),
    )
    terms = st.dictionaries(keys, st.integers(-2, 2), max_size=8)
    return n, e, f, draw(terms), draw(terms)


@settings(max_examples=400, deadline=None)
@given(_pair_terms_cases())
def test_one_pass_structure_check_matches_the_key_walk(case):
    # The check sees only the gap and 4P: the one-pass test of the gap's
    # keys, and Delta rebuilt from them on failure, must name what a walk
    # over Delta's and 4P's own keys names.
    n, e, f, delta, four_p = case
    m = uniform(3, n)
    want = _reference_structure_walk(m, e, f, delta, four_p)
    try:
        _check_structure(m, e, f, delta, four_p, [])
    except RuntimeError as exc:
        assert str(exc) == want
    else:
        assert want is None


def test_ansatz_parts_general_position():
    # in U_{3,4} every two-element closure is the pair itself
    parts = ansatz_parts(uniform(3, 4), "1", "2", "3")
    assert parts.L_ae == frozenset()
    assert parts.L_af == frozenset()
    assert parts.U_a == frozenset({"4"})
    assert parts.C_a.is_zero and parts.D_a.is_zero
    assert parts.B_a == Polynomial.variable("4")
    assert parts.T_a == parse_polynomial("+1 * y_3^2 y_4^2")
    assert parts.square_root_term() * parts.square_root_term() == parts.T_a


def test_ansatz_parts_point_on_a_line():
    # fig1.I has the single line {2,3,4}; with e=1, f=2, a=3 the element 4
    # lands in L(3,2) and nothing is left for U(3), so T_3 vanishes
    parts = ansatz_parts(named("fig1.I"), "1", "2", "3")
    assert parts.L_ae == frozenset()
    assert parts.L_af == frozenset({"4"})
    assert parts.U_a == frozenset()
    assert parts.T_a.is_zero


def test_ansatz_parts_with_parallel_a():
    # definitions apply verbatim when a is parallel to another element
    m = with_parallel_copy(uniform(3, 4), "1", "p")
    parts = ansatz_parts(m, "1", "2", "p")
    assert parts.L_ae == frozenset()  # closure({p,1}) is just the class {1,p}
    assert parts.L_af == frozenset({"1"})
    assert parts.U_a == frozenset({"3", "4"})
    yp, y3, y4 = (Polynomial.variable(v) for v in ("p", "3", "4"))
    root = yp * (y3 + y4)
    assert parts.T_a == root * root


def test_ansatz_parts_errors():
    with pytest.raises(ValueError, match="undefined above rank 3"):
        ansatz_parts(uniform(4, 5), "1", "2", "3")
    with pytest.raises(ValueError, match="requires a rank-3"):
        ansatz_parts(uniform(2, 4), "1", "2", "3")
    m = uniform(3, 4)
    with pytest.raises(ValueError, match="differ from e and f"):
        ansatz_parts(m, "1", "2", "1")
    with pytest.raises(ValueError, match="distinct"):
        ansatz_parts(m, "1", "1", "3")
    with pytest.raises(ValueError, match="ground set"):
        ansatz_parts(m, "1", "2", "9")


def test_ansatz_polynomial_u34():
    # 4P = T_3 + T_4, and each T_a is y_3^2*y_4^2: P = 1/2 * y_3^2*y_4^2
    four_p = _kernel_four_p(uniform(3, 4), "1", "2")
    assert four_p == parse_polynomial("+2 * y_3^2 y_4^2")


def test_ansatz_polynomial_k4():
    m = named("K4")
    four_p = _kernel_four_p(m, "1", "2")
    assert four_p.coefficient({"3": 1, "4": 1, "5": 1, "6": 1}) == -8
    delta = rayleigh_difference(m, "1", "2")
    assert dominates(delta * 4, four_p)


def test_ansatz_polynomial_can_vanish():
    # every T_a of fig1.I at the pair {1,2} is zero
    assert _kernel_four_p(named("fig1.I"), "1", "2").is_zero


def test_ansatz_polynomial_nonnegative_at_points():
    rng = random.Random(11)
    for name, pair in [("fig3.V", ("1", "4")), ("K4", ("1", "2")),
                       ("fig2.III", ("1", "3"))]:
        m = named(name)
        four_p = _kernel_four_p(m, *pair)
        for _ in range(50):
            point = {el: Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
                     for el in m.elements}
            assert four_p.evaluate(point) >= 0


def test_lemma33_reduce_deletes_line_points():
    m = named("fig1.I")  # line {2,3,4}
    red = lemma33_reduce(m, "2", "3")
    assert red.chain == ("4",)
    assert red.matroid.elements == ("1", "2", "3")
    assert len(red.matroid.bases) == 1  # three points in general position
    assert not red.pair_dependent


def test_lemma33_reduce_noop_when_closed():
    m = uniform(3, 4)
    for e, f in combinations(m.elements, 2):
        red = lemma33_reduce(m, e, f)
        assert red.chain == ()
        assert red.matroid == m


def test_lemma33_reduce_long_line():
    m = named("fig3.III")  # four-point line {3,4,5,6}
    red = lemma33_reduce(m, "3", "4")
    assert len(red.chain) == 2
    assert set(red.chain) == {"5", "6"}
    assert red.matroid.closure(("3", "4")) == frozenset({"3", "4"})
    # a five-point line {a,b,c,d,e} with the ground set out of sorted order:
    # the chain follows the ground set, not the labels
    m = from_geometry(["c", "a", "x", "e", "b", "d"], [["a", "b", "c", "d", "e"]])
    red = lemma33_reduce(m, "a", "b")
    assert red.chain == ("c", "e", "d")
    assert red.matroid.elements == ("a", "x", "b")
    assert red.matroid.closure(("a", "b")) == frozenset({"a", "b"})


def test_lemma33_reduce_flags_dependent_pair():
    m = with_parallel_copy(uniform(3, 4), "1", "p")
    red = lemma33_reduce(m, "1", "p")
    assert red.pair_dependent
    assert red.chain == ()
    assert red.matroid == m


def test_lemma33_steps_shrink_delta_coefficientwise():
    # each single deletion step satisfies the exact dominance that makes
    # the reduction sound
    m = named("fig3.III")
    e, f = "3", "4"
    current = m
    for g in lemma33_reduce(m, e, f).chain:
        before = rayleigh_difference(current, e, f)
        after_m = current.delete((g,))
        after = rayleigh_difference(after_m, e, f)
        assert dominates(before, after)
        current = after_m


def test_certify_k4_pair():
    rep = certify(named("K4"), "1", "2")
    assert rep.verdict
    assert rep.mode == "reduced-ansatz"
    assert rep.reduction_chain == ()
    assert rep.reduced_pair_closed
    y3, y4, y5, y6 = (Polynomial.variable(v) for v in "3456")
    square = y3 * y4 - y5 * y6
    assert rep.delta == square * square
    assert rep.delta == rep.P + rep.residual
    assert all(c >= 0 for _, c in rep.residual.terms())
    squares = rep.to_json_dict()["squares"]
    assert len(squares) == 4
    for a, root in squares:
        assert a in ("3", "4", "5", "6")
        expected = ansatz_parts(named("K4"), "1", "2", a).square_root_term()
        assert parse_polynomial(root) == expected
    assert rep.unreduced_dominance is True
    assert rep.delta_original == rep.delta


def test_reports_and_records_are_read_only_values():
    k4 = named("K4")
    rep = certify(k4, "1", "2")
    record = lemma31_injection(k4, "2", "3", "5")[0]
    for value, field in [
        (record, "branch"), (record, "a1"),
        (ansatz_parts(k4, "1", "2", "3"), "T_a"),
        (rep, "verdict"), (rep, "gap"), (rep, "P"), (rep, "delta"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert rep.P * 4 == _kernel_four_p(k4, "1", "2")
    assert repr(rep).startswith("CertificateReport(pair=('1', '2'), mode='reduced-ansatz',")
    assert "four_p" not in repr(rep)


def test_certify_reduced_pair():
    m = named("fig1.I")
    rep = certify(m, "2", "3")
    assert rep.verdict
    assert rep.reduction_chain == ("4",)
    assert rep.delta_original == rayleigh_difference(m, "2", "3")
    # the reduced difference is certified; the original then follows by
    # the deletion chain, each step an exact coefficientwise dominance
    assert dominates(rep.delta_original, rep.delta)


def test_certify_rank_two():
    rep = certify(uniform(2, 4), "1", "2")
    assert rep.verdict
    assert rep.mode == "rank-le-2"
    assert rep.P.is_zero
    assert rep.residual == rep.delta
    assert all(c >= 0 for _, c in rep.delta.terms())
    # every pair of each U_1_n and U_2_n on <= 6 points, and of a rank-2
    # matroid with a two-element parallel class
    doubled = with_parallel_copy(uniform(2, 4), "1", "p")
    low_rank = [uniform(r, n) for r in (1, 2) for n in range(max(r, 2), 7)]
    answers = set()
    for m in low_rank + [doubled]:
        for e, f in combinations(m.elements, 2):
            rep = certify(m, e, f)
            assert rep.mode == "rank-le-2" and rep.verdict
            closed = m.closure((e, f)) == frozenset((e, f))
            assert rep.reduced_pair_closed is closed, (m, e, f)
            answers.add(closed)
    assert answers == {True, False}


def test_certify_parallel_pair_product_mode():
    m = with_parallel_copy(uniform(3, 4), "1", "p")
    rep = certify(m, "1", "p")
    assert rep.verdict
    assert rep.mode == "product"
    assert rep.P.is_zero
    assert all(c >= 0 for _, c in rep.delta.terms())


def test_certify_errors():
    with pytest.raises(ValueError, match="undefined above rank 3"):
        certify(uniform(4, 5), "1", "2")
    loopy = Matroid.from_bases(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("2", "3")])
    with pytest.raises(ValueError, match="loop"):
        certify(loopy, "1", "2")
    with pytest.raises(ValueError, match="distinct"):
        certify(uniform(3, 4), "1", "1")
    with pytest.raises(ValueError, match="ground set"):
        certify(uniform(3, 4), "1", "9")


def test_certify_every_pair_up_to_six_points():
    for n in (4, 5, 6):
        for m in enumerate_simple_rank3(n).classes:
            for e, f in combinations(m.elements, 2):
                assert certify(m, e, f).verdict, (n, e, f)


@pytest.mark.slow
def test_certify_every_pair_on_nine_points():
    # the theorem on every pair of the 383 nine-point classes
    pairs = 0
    for m in enumerate_simple_rank3(9).classes:
        for e, f in combinations(m.elements, 2):
            assert certify(m, e, f).verdict, (line_masks(m), e, f)
            pairs += 1
    assert pairs == 13_788


def _one_doubled(n):
    """Every n-point census class with one element doubled, in a fixed order."""
    return [with_parallel_copy(cls, x, str(n + 1))
            for cls in enumerate_simple_rank3(n).classes for x in cls.elements]


def _two_copies(n):
    """Every n-point census class with two copies of one element, then with
    two distinct elements doubled."""
    out = []
    for cls in enumerate_simple_rank3(n).classes:
        for x in cls.elements:
            out.append(with_parallel_copy(
                with_parallel_copy(cls, x, str(n + 1)), x, str(n + 2)))
        for x, y in combinations(cls.elements, 2):
            out.append(with_parallel_copy(
                with_parallel_copy(cls, x, str(n + 1)), y, str(n + 2)))
    return out


def _unreduced_dominance_reference(m, e, f):
    """Delta >> P on m itself, before any reduction: the full second ansatz."""
    ie, jf = m.elements.index(e), m.elements.index(f)
    four_p = certificate._four_p_terms(_squares(m, ie, jf))
    gap = certificate._gap(_products(_split(m, (ie, jf)), _DELTA), four_p)
    return all(coeff >= 0 for coeff in gap.values())


def test_unreduced_dominance_fails_on_every_open_pair():
    # `certify` decides the field by a lemma (see its docstring): before
    # reduction the dominance Delta >> P fails for every pair that is not
    # already closed.  The full second ansatz is the oracle, on simple
    # inputs and on inputs with parallel copies; the doubled pairs reach
    # chains whose every member is parallel to e or f (the lemma's second
    # case, broken by y_a^2 y_u^2 rather than y_e^2 y_f^2).
    census = [m for n in range(3, 8) for m in enumerate_simple_rank3(n).classes]
    nonsimple = [m for n in (4, 5, 6) for m in _one_doubled(n) + _two_copies(n)]
    open_small = chained = parallel_only = 0
    for m in census + nonsimple:
        for e, f in combinations(m.elements, 2):
            rep = certify(m, e, f)
            if rep.mode != "reduced-ansatz":
                assert rep.unreduced_dominance is None
                continue
            expected = _unreduced_dominance_reference(m, e, f)
            assert rep.unreduced_dominance is expected, (m, e, f)
            if rep.reduction_chain:
                assert expected is False
                chained += 1
                open_small += m.n <= 6 and m.is_simple()
                parallel_only += all(
                    m.is_dependent((a, e)) or m.is_dependent((a, f))
                    for a in rep.reduction_chain
                )
            else:
                assert expected is rep.verdict
    assert open_small == 79
    assert (chained, parallel_only) == (6685, 3068)


def test_ansatz_dominance_needs_simplicity():
    # frozen observation: with element 3 doubled in U_{3,4}, the square
    # T_3 = (y_3 y_4 - y_p^2)^2 contributes y_p^4, which the difference
    # (a square of a multiaffine polynomial) cannot contain; the pair
    # {1,2} is closed, so no reduction happens and the verdict is False
    # even though the difference itself is >> 0
    m = with_parallel_copy(uniform(3, 4), "3", "p")
    rep = certify(m, "1", "2")
    assert rep.mode == "reduced-ansatz"
    assert rep.reduction_chain == ()
    assert not rep.verdict
    assert dominates(rep.delta, Polynomial.zero())
    p4 = rep.P.coefficient({"p": 4})
    assert p4 > 0
    assert rep.delta.coefficient({"p": 4}) == 0


# Every report of these inputs, rendered with `to_json_dict`, hashes to
# _REPORT_DIGEST; the digest was taken while the report still built every
# field eagerly on a per-pair reduced Matroid.
_REPORT_DIGEST = "5bcbcf5ceb526acc74713b5207df387d8b22636b2f45be6313e458dd9f2d1fa8"


@pytest.fixture(scope="module")
def pinned_reports():
    """Reports for every pair of the n = 3..7 census, and of every n = 4..6
    class with one element doubled, in a fixed order."""
    inputs = [m for n in range(3, 8) for m in enumerate_simple_rank3(n).classes]
    inputs += [m for n in (4, 5, 6) for m in _one_doubled(n)]
    return [certify(m, e, f) for m in inputs for e, f in combinations(m.elements, 2)]


def test_rendered_reports_match_the_pinned_digest(pinned_reports):
    digest = hashlib.sha256()
    for rep in pinned_reports:
        text = json.dumps(rep.to_json_dict(), sort_keys=True) + "\n"
        digest.update(text.encode())
    assert len(pinned_reports) == 2187
    assert digest.hexdigest() == _REPORT_DIGEST


def test_report_fields_satisfy_the_read_time_identities(pinned_reports):
    for rep in pinned_reports:
        assert rep.delta == rep.P + rep.residual, rep.pair
        four_p = Polynomial.zero()
        for _, packed in rep.roots:
            root = from_packed(packed, rep.matroid.elements)
            four_p = four_p + root * root
        assert rep.P * 4 == four_p, rep.pair
        if not rep.reduction_chain:
            assert rep.delta_original == rep.delta, rep.pair


def test_packed_rendering_matches_the_report_fields(pinned_reports):
    for rep in pinned_reports:
        doc = rep.to_json_dict()
        assert doc["ansatz"] == format_polynomial(rep.P), rep.pair
        assert doc["residual"] == format_polynomial(rep.residual), rep.pair
        assert doc["residual_terms"] == len(rep.residual), rep.pair
        labels = rep.matroid.elements
        assert doc["squares"] == [
            [labels[a], format_polynomial(from_packed(root, labels))]
            for a, root in rep.roots
        ], rep.pair


def test_derived_views_follow_the_fields(pinned_reports):
    rank_two = [certify(m, e, f) for m in (uniform(2, 2), uniform(2, 4), uniform(1, 3))
                for e, f in combinations(m.elements, 2)]
    assert [rep.reduced_pair_closed for rep in rank_two] == [True] + [False] * 9
    modes, verdicts = set(), set()
    for rep in pinned_reports + rank_two:
        m, (e, f) = rep.matroid, rep.pair
        modes.add(rep.mode)
        verdicts.add(rep.verdict)
        assert rep.verdict == all(c >= 0 for _, c in rep.residual.terms()), rep.pair
        if rep.mode == "product":
            assert rep.reduced_pair_closed is False
        elif rep.mode == "rank-le-2":
            assert rep.reduced_pair_closed == closed_pair_filter(m, e, f)
        else:
            assert rep.reduced_pair_closed is True
            assert closed_pair_filter(lemma33_reduce(m, e, f).matroid, e, f)
        if rep.mode != "reduced-ansatz":
            assert rep.unreduced_dominance is None
        elif rep.reduction_chain:
            assert rep.unreduced_dominance is False
        else:
            assert rep.unreduced_dominance is rep.verdict
    assert modes == {"product", "rank-le-2", "reduced-ansatz"}
    assert verdicts == {True, False}


@pytest.mark.parametrize("corrupt", ["delta", "gap"])
def test_identity_check_fires_inside_certify(monkeypatch, corrupt):
    # A pair without a chain cuts its gap from a Delta with `_gap`; a chained
    # pair adds its products into the gap with `add_products`, weight +-4.
    # Packed key 0 is the constant monomial; the dicts may be empty.
    real_gap = certificate._gap

    def corrupted_gap(delta, four_p):
        if corrupt == "delta":  # the Delta the gap is cut from
            delta[0] = delta.get(0, 0) + 1
            return real_gap(delta, four_p)
        gap = real_gap(delta, four_p)
        gap[0] = gap.get(0, 0) - 1
        return gap

    def corrupted_products(gap, xs, ys, sign):
        poly.add_products(gap, xs, ys, sign)
        if sign > 0:  # once per pair: Delta (weight 4), or the gap, off by one
            gap[0] = gap.get(0, 0) + (sign if corrupt == "delta" else -1)
        return gap

    monkeypatch.setattr(certificate, "_gap", corrupted_gap)
    monkeypatch.setattr(certificate, "add_products", corrupted_products)
    cases = [
        (named("K4"), "1", "2"),  # reduced-ansatz, closed pair
        (named("fig1.I"), "2", "3"),  # reduced-ansatz with a chain
        (with_parallel_copy(uniform(3, 4), "1", "p"), "1", "p"),  # product
        (uniform(2, 4), "1", "2"),  # rank-le-2
    ]
    for m, e, f in cases:
        with pytest.raises(RuntimeError, match=r"delta != P \+ residual"):
            certify(m, e, f)


def test_certify_builds_no_minor_until_delta_is_read(monkeypatch):
    minors = []
    real_minor = Matroid.minor

    def counted_minor(self, *args, **kwargs):
        minors.append(args)
        return real_minor(self, *args, **kwargs)

    monkeypatch.setattr(Matroid, "minor", counted_minor)
    reports = [certify(m, e, f)
               for m in enumerate_simple_rank3(7).classes
               for e, f in combinations(m.elements, 2)]
    assert minors == []
    chained = next(rep for rep in reports if rep.reduction_chain)
    closed = next(rep for rep in reports if not rep.reduction_chain)
    for rep in (chained, closed):
        rep.P, rep.residual, rep.delta_original
    closed.delta
    assert minors == []
    chained.delta
    assert len(minors) == 1


def test_certify_work_per_pair(monkeypatch):
    # Every pair multiplies one split out once.  A pair with a reduction
    # chain splits its bases once, adds that split's two Delta products
    # straight into the gap with weight +-4 and builds no Delta dict and no
    # delta_original; every other pair splits them twice: delta_original's
    # split, whose one `_products` dict the gap is cut from, and certify's
    # own, which feeds only the identity check.  The parallel structure and
    # the packed bases are built once per matroid.
    splits = []
    products = []
    accumulated = []
    real_products = rayleigh._products

    def counted_products(split, formula):
        products.append(formula)
        return real_products(split, formula)

    def counted_add_products(acc, xs, ys, sign):
        accumulated.append(sign)
        return poly.add_products(acc, xs, ys, sign)
    built = {"_shares": {}, "_packed_bases": {}}
    real_split = certificate._split

    def counted_split(m, members, *args, **kwargs):
        splits.append(tuple(members))
        return real_split(m, members, *args, **kwargs)

    def recorded(name):
        real = getattr(Matroid, name)

        def method(self):
            result = real(self)
            built[name].setdefault(id(self), []).append(result)  # kept alive: ids stay apart
            return result

        return method

    # certify reads its own binding, rayleigh_difference the module's.
    monkeypatch.setattr(certificate, "_split", counted_split)
    monkeypatch.setattr(rayleigh, "_split", counted_split)
    monkeypatch.setattr(certificate, "_products", counted_products)
    monkeypatch.setattr(rayleigh, "_products", counted_products)
    monkeypatch.setattr(certificate, "add_products", counted_add_products)
    for name in built:
        monkeypatch.setattr(Matroid, name, recorded(name))
    inputs = list(enumerate_simple_rank3(7).classes) + _one_doubled(5)
    for m in inputs:
        for e, f in combinations(m.elements, 2):
            splits.clear()
            products.clear()
            accumulated.clear()
            rep = certify(m, e, f)
            ie, jf = m.elements.index(e), m.elements.index(f)
            chained = bool(rep.reduction_chain)
            assert splits == [(ie, jf)] * (1 if chained else 2), (m, e, f)
            assert products == ([] if chained else [_DELTA]), (m, e, f)
            assert accumulated == ([4, -4] if chained else []), (m, e, f)
    for per_matroid in built.values():
        assert len(per_matroid) == len(inputs)
        for results in per_matroid.values():
            assert len(results) > 1 and all(r is results[0] for r in results)


def test_delta_original_of_a_chained_pair_is_built_when_read(monkeypatch):
    # With a reduction chain no check reads Delta_M, so certify leaves it to
    # the report, which builds it when it is read.
    calls = []
    real_difference = certificate.rayleigh_difference

    def counted_difference(m, e, f):
        calls.append((e, f))
        return real_difference(m, e, f)

    monkeypatch.setattr(certificate, "rayleigh_difference", counted_difference)
    m = named("fig1.I")
    rep = certify(m, "2", "3")
    assert rep.reduction_chain == ("4",)
    assert calls == []
    first = rep.delta_original
    assert calls == [("2", "3")]
    assert first == real_difference(m, "2", "3")
    assert first == _reference_delta(m, "2", "3")
    assert repr(rep) == (
        "CertificateReport(pair=('2', '3'), mode='reduced-ansatz', "
        "reduced_pair_closed=True, reduction_chain=('4',), verdict=True, "
        "delta_original=Polynomial('+1 * y_1^2 y_4^2'), unreduced_dominance=False)"
    )
    with pytest.raises(AttributeError):
        rep.delta_original = None


def _packed_off_by_one(m, e, f):
    """Delta_M as `from_packed` gives it, with one coefficient raised by 1."""
    terms = _products(_split(m, (m.elements.index(e), m.elements.index(f))), _DELTA)
    key = next(key for key, coeff in terms.items() if coeff)
    terms[key] += 1
    return from_packed(terms, m.elements)


def test_a_corrupted_delta_original_is_caught(monkeypatch):
    # Without a chain the reduced Delta is Delta_M, and certify cuts the gap
    # from delta_original's packed terms.  A decoded Polynomial is not packed
    # over m's labels, so it is rejected; a packed one with a coefficient off
    # by one fails the multiset identity against certify's own split.
    real_difference = certificate.rayleigh_difference
    corruptions = [
        lambda m, e, f: real_difference(m, e, f) + Polynomial.constant(1),
        _packed_off_by_one,
    ]
    cases = [
        (named("K4"), "1", "2"),  # reduced-ansatz, closed pair
        (with_parallel_copy(uniform(3, 4), "1", "p"), "1", "p"),  # product
        (uniform(2, 4), "1", "2"),  # rank-le-2
    ]
    for corrupted_difference in corruptions:
        monkeypatch.setattr(certificate, "rayleigh_difference", corrupted_difference)
        for m, e, f in cases:
            with pytest.raises(RuntimeError, match=r"delta != P \+ residual"):
                certify(m, e, f)


def test_a_chain_free_json_report_builds_no_second_delta(monkeypatch):
    # Without a reduction chain Delta is Delta_M, so the JSON report prints
    # the text of delta_original as "delta" too and calls no
    # rayleigh_difference of its own.
    calls = []
    real_difference = certificate.rayleigh_difference

    def counted_difference(m, e, f):
        calls.append((e, f))
        return real_difference(m, e, f)

    monkeypatch.setattr(certificate, "rayleigh_difference", counted_difference)
    k4 = named("K4")
    rep = certify(k4, "1", "2")
    assert rep.reduction_chain == () and calls == [("1", "2")]
    doc = rep.to_json_dict()
    assert calls == [("1", "2")]
    assert doc["delta"] == doc["delta_original"] == format_polynomial(
        real_difference(k4, "1", "2"))


def test_a_text_certificate_builds_one_delta_per_pair(monkeypatch, capsys):
    # The text certificate prints delta, ansatz, residual and the squares.
    # It reads the reduced Delta of a chained pair (one rayleigh_difference
    # on the reduced matroid) and the delta_original certify built for every
    # other pair, but no chained pair's Delta_M, which only the JSON report
    # prints as delta_original.  bowtie7 has 21 pairs, 12 of them chained.
    calls = []
    real_difference = certificate.rayleigh_difference

    def counted_difference(m, e, f):
        calls.append((e, f))
        return real_difference(m, e, f)

    monkeypatch.setattr(certificate, "rayleigh_difference", counted_difference)
    reports = [certify(named("bowtie7"), e, f)
               for e, f in combinations(named("bowtie7").elements, 2)]
    assert (len(reports), sum(bool(r.reduction_chain) for r in reports)) == (21, 12)
    calls.clear()
    assert main(["certificate", "bowtie7", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert len(calls) == 21
    calls.clear()
    docs = [rep.to_json_dict() for rep in reports]
    assert len(calls) == 33 - 9  # certify's own 9 calls are not repeated
    for rep, doc in zip(reports, docs):
        fields = rep.text_fields()
        assert fields == {key: doc[key] for key in fields}, rep.pair
        assert f"  delta    = {doc['delta']}\n" in text


def test_certify_decodes_no_monomial(monkeypatch):
    # certify compares packed terms only, and every Polynomial it returns is
    # still packed; a monomial is decoded when a report is rendered.
    decoded = []
    real_missing = poly._MonomialTable.__missing__

    def counted_missing(self, key):
        decoded.append(key)
        return real_missing(self, key)

    monkeypatch.setattr(poly._MonomialTable, "__missing__", counted_missing)
    poly._monomial_table.cache_clear()  # a warm table would decode unseen
    inputs = [named("K4"), named("bowtie7"), enumerate_simple_rank3(8).classes[-1]]
    reports = [certify(m, e, f)
               for m in inputs for e, f in combinations(m.elements, 2)]
    assert {bool(rep.reduction_chain) for rep in reports} == {False, True}
    assert decoded == []
    closed = next(rep for rep in reports if not rep.reduction_chain)
    assert len(closed.delta_original) and closed.delta_original == closed.delta
    assert decoded == []
    format_polynomial(closed.delta_original)
    assert len(decoded) == len(closed.delta_original)


@lru_cache(maxsize=None)
def _chained_pair():
    """A 7-point pair with a reduction chain and a nonzero reduced Delta."""
    return next(
        (m, e, f) for m in enumerate_simple_rank3(7).classes
        for e, f in combinations(m.elements, 2)
        if (rep := certify(m, e, f)).reduction_chain and len(rep.delta)
    )


def test_a_consistent_kernel_fault_is_caught(monkeypatch):
    # Every gap holds products that `add_products` counted: through
    # `rayleigh_difference` without a chain, and with weight +-4 in certify
    # itself with one.  The identity is checked against product keys listed
    # without it: a fault in the kernel that both paths share must show.
    cases = [(named("K4"), "1", "2"), _chained_pair()]

    def doubled_products(acc, xs, ys, sign=1):  # counts every product twice
        return poly.add_products(acc, xs, ys, 2 * sign)

    monkeypatch.setattr(rayleigh, "add_products", doubled_products)
    monkeypatch.setattr(certificate, "add_products", doubled_products)
    for m, e, f in cases:
        with pytest.raises(RuntimeError, match=r"delta != P \+ residual"):
            certify(m, e, f)


@pytest.mark.parametrize("fault", ["doubled", "weight one"])
def test_a_fault_in_the_chained_accumulation_is_caught(monkeypatch, fault):
    # A chained pair adds its Delta products into the gap, seeded with -4P,
    # with weight +-4.  Counting every product twice, or with weight +-1 (so
    # the gap is Delta - 4P), breaks 4*Delta = 4P + gap.
    m, e, f = _chained_pair()
    assert certify(m, e, f).verdict

    def faulty_products(acc, xs, ys, sign):
        weight = 2 * sign if fault == "doubled" else sign // 4
        return poly.add_products(acc, xs, ys, weight)

    monkeypatch.setattr(certificate, "add_products", faulty_products)
    with pytest.raises(RuntimeError, match=r"delta != P \+ residual"):
        certify(m, e, f)


def test_reports_survive_copy_and_pickle():
    inputs = [named("K4"), named("fig1.I"), with_parallel_copy(uniform(3, 4), "1", "p")]
    reports = [certify(m, e, f) for m in inputs for e, f in combinations(m.elements, 2)]
    assert {rep.mode for rep in reports} == {"reduced-ansatz", "product"}
    assert any(rep.reduction_chain for rep in reports)
    for rep in reports:
        for twin in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
            if rep.delta_input is not None:  # a packed Polynomial stays packed
                assert twin.delta_input._packed == rep.delta_input._packed
            assert twin.matroid == rep.matroid
            assert twin.to_json_dict() == rep.to_json_dict()


def test_report_serialization():
    rep = certify(named("K4"), "1", "2")
    doc = rep.to_json_dict()
    assert doc["schema"] == "rayleigh-kit/1"
    assert doc["kind"] == "certificate"
    assert doc["pair"] == ["1", "2"]
    assert doc["verdict"] is True
    assert parse_polynomial(doc["delta"]) == rep.delta
    assert parse_polynomial(doc["ansatz"]) == rep.P
    assert parse_polynomial(doc["residual"]) == rep.residual
    assert len(doc["squares"]) == 4


def test_table_families_all_match():
    for family in ("GGHH", "GGHI", "GHIJ"):
        report = table_coefficients(family)
        assert report.all_match, family
        assert report.unmatched == ()
        assert report.mismatches == ()
        assert report.uncovered == ()
        assert report.scan_occurrences > 0
        assert all(r.ok for r in report.rows)


def test_table_spot_values():
    gghh = {r.row.label: r for r in table_coefficients("GGHH").rows}
    assert gghh["I{1,2}"].delta == 0
    assert gghh["II{1,2}"].positive == 1 and gghh["II{1,2}"].delta == 1

    gghi = {r.row.label: r for r in table_coefficients("GGHI").rows}
    row = gghi["III{1,3},2"]
    assert (row.positive, row.negative, row.delta) == (2, 1, 1)

    ghij = {r.row.label: r for r in table_coefficients("GHIJ").rows}
    row = ghij["V{4,5}"]
    assert (row.positive, row.negative, row.delta) == (4, 3, 1)
    assert row.p_value == Fraction(-1, 2)
    assert ghij["IV{1,2}"].delta == -2


def test_table_scan_coverage():
    # the catalog sweep touches every row and realizes every listed
    # Ansatz coefficient, including all three values of the GGHH note-A row
    report = table_coefficients("GGHH")
    usage = {r.row.label: r for r in report.rows}
    assert all(u.occurrences > 0 for u in usage.values())
    note_a = usage["II{1,2}"]
    assert set(note_a.p_observed) == {Fraction(1, 2), Fraction(3, 4), Fraction(1)}


def _reference_pinned_key(m, e, f, support, family):
    """The scan's key the slow way: the lines of the restriction Matroid."""
    labels = [m.elements[i] for i in (e, f, *support)]
    sub = m.restriction(labels)
    index = {el: i for i, el in enumerate(sub.elements)}
    masks = [sum(1 << index[el] for el in line) for line in lines_of(sub)]
    e_, f_, *rest = (index[el] for el in labels)
    cells = [[e_, f_], [rest[0]], rest[1:]] if family == "GGHI" else [[e_, f_], rest]
    return canonical_form(masks, sub.n, cells)


def test_table_scan_keys_match_the_restriction_reference():
    visited = 0
    for family in ("GGHH", "GGHI", "GHIJ"):
        for _, m in _scan_matroids():
            lines = line_masks(m)
            for e, f in combinations(range(m.n), 2):
                if not closed_pair_filter(m, m.elements[e], m.elements[f]):
                    continue
                others = [i for i in range(m.n) if i not in (e, f)]
                for support in _shape_supports(others, family):
                    visited += 1
                    assert _pinned_key(lines, m.n, e, f, support, family) == (
                        _reference_pinned_key(m, e, f, support, family)
                    ), (family, m, e, f, support)
    scanned = sum(table_coefficients(fam).scan_occurrences
                  for fam in ("GGHH", "GGHI", "GHIJ"))
    assert visited == scanned == 1970


def test_shape_text_names_each_shape():
    assert [shape_text(fam) for fam in ("GGHH", "GGHI", "GHIJ")] == [
        "y_g^2 y_h^2", "y_g^2 y_h y_i", "y_g y_h y_i y_j"]


def _explicit_supports(others, family):
    """The scan's supports written out per shape: the oracle for their
    derivation from the exponent table."""
    if family == "GGHH":
        yield from combinations(others, 2)
    elif family == "GGHI":
        for g in others:
            for h, i in combinations([x for x in others if x != g], 2):
                yield (g, h, i)
    else:
        yield from combinations(others, 4)


@pytest.mark.parametrize("family", ["GGHH", "GGHI", "GHIJ"])
def test_shape_supports_follow_the_exponent_table(family):
    # The order of the unmatched and mismatch lines follows this order.
    for k in range(2, 8):
        others = list(range(k))
        assert list(_shape_supports(others, family)) == list(
            _explicit_supports(others, family)), k


def test_report_delta_reduces_through_lemma33(monkeypatch):
    calls = []
    real_reduce = certificate.lemma33_reduce

    def counted_reduce(m, e, f):
        calls.append((e, f))
        return real_reduce(m, e, f)

    monkeypatch.setattr(certificate, "lemma33_reduce", counted_reduce)
    m = named("fig1.I")
    chained, closed = certify(m, "2", "3"), certify(m, "1", "2")
    assert calls == [] and closed.reduction_chain == ()
    assert chained.delta == rayleigh_difference(m.delete(["4"]), "2", "3")
    assert closed.delta == closed.delta_original
    assert calls == [("2", "3"), ("1", "2")]


def test_table_mismatch_fails_the_tables_command(monkeypatch, capsys):
    first, second = certificate._TABLE_ROWS["GGHH"]
    wrong = second._replace(positive=2)
    monkeypatch.setitem(certificate._TABLE_ROWS, "GGHH", (first, wrong))
    report = table_coefficients("GGHH")
    assert not report.all_match
    assert [r.ok for r in report.rows] == [True, False]
    assert report.mismatches
    assert all(line.endswith("expected II{1,2} 2-0, got 1-0")
               for line in report.mismatches)
    assert main(["tables", "--family", "GGHH"]) == 1
    out = capsys.readouterr().out
    assert "classification INCOMPLETE" in out
    assert out.rstrip("\n").rsplit("\n", 1)[-1] == "tables: MISMATCHES FOUND"
    assert main(["tables", "--family", "GGHH", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    (family,) = doc["families"]
    assert [r["match"] for r in family["rows"]] == [True, False]
    assert family["rows"][1]["expected"]["positive"] == 2
    assert family["rows"][1]["computed"]["positive"] == 1
    assert family["scan"]["mismatches"] == list(report.mismatches)
    assert family["all_match"] is False and doc["all_match"] is False


def test_table_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown shape family"):
        table_coefficients("GGGG")
