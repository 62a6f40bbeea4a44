"""Sum-of-squares certificates for rank-3 Rayleigh differences.

For a rank-3 matroid and a pair e != f of elements, the certificate machinery
builds the quartic

    P(e,f)  =  1/4 * sum_{a outside {e,f}}  (y_a*B(a) - C(a)*D(a))^2

where, writing cl() for closure,

    L(a,e) = cl({a,e}) - {a,e},     L(a,f) = cl({a,f}) - {a,f},
    U(a)   = E - (cl({a,e}) | cl({a,f})),
    B(a)   = sum of y over U(a),    C(a) = sum over L(a,e),
    D(a)   = sum over L(a,f),

and checks the coefficientwise dominance Delta{e,f} >> P.  Since P is a
quarter-sum of squares, dominance certifies Delta{e,f} >= 0 on the positive
orthant, i.e. that e and f are negatively correlated at every weighting.

Before building P, `certify` reduces the pair: while some third element g lies
in the closure of {e,f}, g is deleted.  Each such deletion can only shrink the
Rayleigh difference coefficientwise, so a certificate for the reduced matroid
covers the original one.  A parallel pair (dependent {e,f}) short-circuits:
then no basis contains both e and f, the negative product vanishes, and the
difference is a product of two basis generating polynomials, which is
coefficientwise nonnegative outright.

`table_coefficients` cross-checks the case analysis behind the dominance: it
classifies every degree-4 monomial of Delta and P over all small catalog
matroids by the isomorphism type of the restriction to the monomial's support
plus {e,f}, and compares the observed coefficients against an embedded table
of expected values per type.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from operator import countOf, or_
from typing import NamedTuple, Optional

from . import GGHH, GGHI, GHIJ, REPORT_SCHEMA
from .matroid import Matroid, canonical_form, line_masks
from .poly import (
    PACKED_BITS,
    Polynomial,
    _SHAPE_EXPONENTS,
    add_products,
    add_square,
    format_packed,
    format_polynomial,
    from_packed,
    pack_mask,
    pack_shape,
    packed_shapes,
    packed_variables,
)
from .rayleigh import (
    PairContext,
    basis_split,
    delta_from_split,
    rayleigh_difference,
)


# ---------------------------------------------------------------------------
# The Ansatz.


class AnsatzParts(NamedTuple):
    """The ingredients of one square term T_a = (y_a*B_a - C_a*D_a)^2."""

    a: str
    L_ae: frozenset[str]
    L_af: frozenset[str]
    U_a: frozenset[str]
    B_a: Polynomial
    C_a: Polynomial
    D_a: Polynomial
    T_a: Polynomial

    def square_root_term(self) -> Polynomial:
        """y_a*B_a - C_a*D_a, the polynomial whose square is T_a."""
        return Polynomial.variable(self.a) * self.B_a - self.C_a * self.D_a


def _require_rank3(m: Matroid) -> None:
    if m.rank != 3:
        raise ValueError("certificate Ansatz undefined above rank 3"
                         if m.rank > 3 else "Ansatz requires a rank-3 matroid")


class _Square(NamedTuple):
    """One square of the Ansatz, on ground-set positions.

    `l_ae`, `l_af` and `u` are L(a,e), L(a,f) and U(a) as bitmasks, and
    `root` is y_a*B(a) - C(a)*D(a) as packed terms (see `poly.pack_mask`).
    """

    a: int
    l_ae: int
    l_af: int
    u: int
    root: dict[int, int]


def _square(m: Matroid, e: int, f: int, a: int, deleted: int = 0) -> _Square:
    """The square for the element at position a, with e, f positions too.

    With `deleted`, a bitmask of positions outside {a,e,f}, the square of
    m with those positions deleted, on m's own positions: deletion
    restricts the rank function, so cl_{M\\X}(A) = cl_M(A) - X.
    """
    ae, af = 1 << a | 1 << e, 1 << a | 1 << f
    keep = ((1 << m.n) - 1) & ~deleted
    cl_ae, cl_af = m.closure_mask(ae) & keep, m.closure_mask(af) & keep
    l_ae, l_af = cl_ae & ~ae, cl_af & ~af
    u = keep & ~(cl_ae | cl_af)
    y_a = pack_mask(1 << a)
    root = {y_a + y: 1 for y in packed_variables(u)}
    add_products(root, packed_variables(l_ae), packed_variables(l_af), -1)
    return _Square(a, l_ae, l_af, u, root)


def _squares(m: Matroid, e: int, f: int, deleted: int = 0) -> list[_Square]:
    """The squares for every position a outside the positions e, f and the
    `deleted` bitmask, in ground-set order."""
    return [
        _square(m, e, f, a, deleted)
        for a in range(m.n)
        if a not in (e, f) and not deleted >> a & 1
    ]


def _four_p_terms(squares: list[_Square]) -> dict[int, int]:
    """4P, the plain sum of the squares, as packed terms."""
    four_p: dict[int, int] = {}
    for square in squares:
        add_square(four_p, square.root)
    return four_p


def ansatz_parts(m: Matroid, e: str, f: str, a: str) -> AnsatzParts:
    """Compute L(a,e), L(a,f), U(a) and the polynomials B, C, D, T for one a."""
    _require_rank3(m)
    PairContext(m, e, f).check_third(a)
    index = m._index
    square = _square(m, index[e], index[f], index[a])
    l_ae, l_af, u_a = (m._unmask(mask) for mask in square[1:4])
    return AnsatzParts(
        a, l_ae, l_af, u_a,
        Polynomial.sum_of_variables(u_a),
        Polynomial.sum_of_variables(l_ae),
        Polynomial.sum_of_variables(l_af),
        from_packed(add_square({}, square.root), m.elements),
    )


def _gap(delta: dict[int, int], four_p: dict[int, int]) -> dict[int, int]:
    """4*Delta - 4P as packed terms: Delta >> P iff none is negative."""
    gap = {key: 4 * coeff for key, coeff in delta.items()}
    get = gap.get
    for key, coeff in four_p.items():
        gap[key] = get(key, 0) - coeff
    return gap


_IDENTITY_VIOLATED = "internal invariant violated: delta != P + residual"


def _check_identity(
    delta: dict[int, int], four_p: dict[int, int], gap: dict[int, int]
) -> None:
    """4*Delta == 4P + gap in integers, that is Delta == P + residual.

    Against a `delta` computed afresh, not the dict `gap` was cut from, the
    identity does not hold by construction, and it catches a corrupted Delta
    dict or gap term.  It cannot catch a wrong `four_p` (the gap is cut from
    it) or a wrong chain mask (both Delta dicts use it); only the tests that
    compare reports with the minor-based Delta do.  For a pair with a
    reduction chain, `certify` passes a second product of its basis split.
    Without one it passes the dict the gap was cut from, which catches a
    corrupted gap, and compares that dict with `delta_original`, which
    `rayleigh_difference` computed from a split of its own.
    """
    total = dict(four_p)
    get = total.get
    for key, coeff in gap.items():
        total[key] = get(key, 0) + coeff
    for key, coeff in delta.items():
        total[key] = get(key, 0) - 4 * coeff
    if any(total.values()):
        raise RuntimeError(_IDENTITY_VIOLATED)


def _check_closed_pair_structure(
    m: Matroid, e: int, f: int, delta: dict[int, int], four_p: dict[int, int],
    squares: list[_Square],
) -> None:
    """Structural facts that hold when m is simple and the pair at positions
    e, f is closed.

    Every monomial of Delta and of 4P (packed terms) is degree-4 in
    variables outside {e,f} with exponents <= 2, and each square's index
    sets partition cleanly.  Violations indicate a bug, hence RuntimeError.
    The nonzero monomials of Delta are checked first, then those of 4P:
    each set against the packed shapes for m's size, and the OR of its keys
    against the e and f fields.
    """
    pair = pack_mask(1 << e | 1 << f) * ((1 << PACKED_BITS) - 1)  # e and f fields
    shapes = packed_shapes(m.n)
    for label, terms in (("delta", delta), ("ansatz", four_p)):
        keys = {key for key, coeff in terms.items() if coeff}
        if not keys <= shapes:
            mono = next(from_packed({min(keys - shapes): 1}, m.elements).terms())[0]
            raise RuntimeError(
                f"internal invariant violated: {label} monomial {mono} "
                "is not of shape y_g^2y_h^2, y_g^2y_hy_i or y_gy_hy_iy_j"
            )
        if reduce(or_, keys, 0) & pair:
            raise RuntimeError(
                f"internal invariant violated: {label} mentions e or f"
            )
    for square in squares:
        l_ae, l_af, u = square.l_ae, square.l_af, square.u
        if (l_ae | l_af | u) & (1 << square.a | 1 << e | 1 << f):
            raise RuntimeError(
                "internal invariant violated: index sets must exclude a, e, f"
            )
        if l_ae & l_af | l_ae & u | l_af & u:
            raise RuntimeError(
                "internal invariant violated: L(a,e), L(a,f), U(a) overlap"
            )


# ---------------------------------------------------------------------------
# Reduction to a closed pair.


class ReductionResult(NamedTuple):
    matroid: Matroid
    chain: tuple[str, ...]
    pair_dependent: bool


def _closure_chain(m: Matroid, e: int, f: int) -> Optional[int]:
    """The third elements in the closure of the pair at positions e, f, as a
    bitmask over m's positions; None when the pair is dependent.

    Deletion restricts the rank function, so cl_{M\\X}({e,f}) =
    cl_M({e,f}) - X: deleting the whole chain at once closes the pair.
    """
    if not m._shares()[e] >> f & 1:  # no basis holds both e and f
        return None
    pair = 1 << e | 1 << f
    return m.closure_mask(pair) & ~pair


def _labels(m: Matroid, mask: int) -> tuple[str, ...]:
    """The elements of a bitmask, in ground-set order."""
    return tuple(el for i, el in enumerate(m.elements) if mask >> i & 1)


def _simple_after_deleting(m: Matroid, deleted: int) -> bool:
    """Whether the loopless m with the `deleted` positions deleted is simple.

    Deletion restricts the rank function, so the parallel pairs left are
    m's parallel pairs outside `deleted`.
    """
    full = (1 << m.n) - 1
    return all(
        shares | deleted == full
        for i, shares in enumerate(m._shares())
        if not deleted >> i & 1
    )


def lemma33_reduce(m: Matroid, e: str, f: str) -> ReductionResult:
    """Delete third elements from the closure of {e,f} until the pair is closed.

    Each deleted g satisfies rank({e,f,g}) = 2, and the deletion can only
    shrink the Rayleigh difference coefficientwise, so certifying the reduced
    matroid certifies the original.  The whole chain is read off one
    (memoised) closure and deleted at once, in ground-set order.  A dependent
    (parallel) pair is returned unchanged with `pair_dependent` set; the
    caller should use the product form of the difference instead.
    """
    _require_rank3(m)
    PairContext(m, e, f)
    chain_mask = _closure_chain(m, m._index[e], m._index[f])
    if chain_mask is None:
        return ReductionResult(m, (), True)
    chain = _labels(m, chain_mask)
    return ReductionResult(m.delete(chain) if chain else m, chain, False)


# ---------------------------------------------------------------------------
# Certification.


class _ReportFields(NamedTuple):
    pair: tuple[str, str]
    mode: str  # "rank-le-2" | "product" | "reduced-ansatz"
    reduced_pair_closed: bool
    reduction_chain: tuple[str, ...]
    verdict: bool
    delta_input: Optional[Polynomial]  # Delta_M when certify built it, else None
    unreduced_dominance: Optional[bool]
    matroid: Matroid
    four_p: dict[int, int]
    gap: dict[int, int]
    roots: tuple[tuple[int, dict[int, int]], ...]


class CertificateReport(_ReportFields):
    """Outcome of certifying one pair.

    `delta`, `P` and `residual` refer to the certified (reduced) matroid;
    `delta = P + residual` exactly, and `verdict` holds iff every residual
    coefficient is nonnegative.  `delta_original` is the difference on the
    input matroid before reduction, and `unreduced_dominance` reports whether
    the dominance already held there (None outside the reduced-ansatz mode).
    It is decided by a lemma, not by a second ansatz: with a non-empty
    chain it is False, and without one the input is the reduced matroid, so
    it is `verdict`.  The lemma and its proof are in `certify`'s docstring.

    The report keeps what `certify` decided on, as packed terms over the
    positions of the input `matroid` (see `poly.pack_mask`): `four_p` is
    4P, `gap` is 4*delta - 4P, and `roots` pairs the position of each
    square's a with its root.  `P`, `residual` and `delta` are built from
    them as `Polynomial`s when first read, once each (`delta` by
    `rayleigh_difference` on the reduced matroid, which is built then).
    `unreduced_dominance` is computed by `certify`, and so is
    `delta_original` for a pair without a reduction chain, which `certify`
    checks against the reduced Delta; `delta_input` holds it then, and is
    None otherwise.  With a chain no check reads Delta_M, so
    `delta_original` is built by `rayleigh_difference` on the input matroid
    when first read, once; the JSON report and the `certificate` command
    read it, `verify`'s text output does not.

    The report is read-only.  The class has no ``__slots__``, so the cached
    fields live in the instance ``__dict__``, which `cached_property` writes
    directly; `__setattr__` refuses every other assignment.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: the report is read-only")

    _SHOWN = ("pair", "mode", "reduced_pair_closed", "reduction_chain",
              "verdict", "delta_original", "unreduced_dominance")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._SHOWN)
        return f"CertificateReport({shown})"

    @cached_property
    def delta_original(self) -> Polynomial:
        if self.delta_input is not None:
            return self.delta_input
        return rayleigh_difference(PairContext(self.matroid, *self.pair))

    @cached_property
    def P(self) -> Polynomial:
        return from_packed(self.four_p, self.matroid.elements) * Fraction(1, 4)

    @cached_property
    def residual(self) -> Polynomial:
        quarter = {
            key: coeff >> 2 if coeff & 3 == 0 else Fraction(coeff, 4)
            for key, coeff in self.gap.items()
        }
        return from_packed(quarter, self.matroid.elements)

    @cached_property
    def delta(self) -> Polynomial:
        if self.mode != "reduced-ansatz":
            return self.delta_original
        m = self.matroid
        if self.reduction_chain:
            m = m.delete(self.reduction_chain)
        return rayleigh_difference(PairContext(m, *self.pair))

    def to_json_dict(self) -> dict:
        labels = self.matroid.elements
        return {
            "schema": REPORT_SCHEMA,
            "kind": "certificate",
            "pair": list(self.pair),
            "mode": self.mode,
            "reduced_pair_closed": self.reduced_pair_closed,
            "reduction_chain": list(self.reduction_chain),
            "delta": format_polynomial(self.delta),
            "ansatz": format_packed(self.four_p, labels, 4),
            "residual": format_packed(self.gap, labels, 4),
            "residual_terms": len(self.gap) - countOf(self.gap.values(), 0),
            "verdict": self.verdict,
            "squares": [
                [labels[a], format_packed(root, labels)] for a, root in self.roots
            ],
            "delta_original": format_polynomial(self.delta_original),
            "unreduced_dominance": self.unreduced_dominance,
        }


def certify(m: Matroid, e: str, f: str) -> CertificateReport:
    """Certify that Delta{e,f} is nonnegative on the positive orthant.

    Rank <= 2: Delta itself is coefficientwise nonnegative, so P = 0.
    Rank 3, dependent pair: the negative product vanishes and Delta is a
    product of basis generating polynomials, again >> 0 with P = 0.
    Rank 3 otherwise: reduce the pair to a closed one, build the Ansatz P on
    the reduced matroid and check Delta_reduced >> P.  The coefficient
    comparison is done on 4*Delta vs 4*P so that it runs in integers.

    Everything is decided and checked on packed terms: a monomial is one int
    with a 4-bit exponent per ground-set position of m (`poly.pack_mask`),
    so a product of monomials is an integer addition.  Delta multiplies two
    bases (exponents <= 2) and 4P squares roots with exponents <= 2, so no
    exponent exceeds 4 and a 4-bit field is enough.  No reduced `Matroid` is
    built: the chain is read off m's memoised closure of {e,f}, the reduced
    squares come from m's flats less the chain, and the reduced Delta from
    the bases of m that avoid it.  On every call the identity
    4*Delta = 4P + (4*Delta - 4P) is checked in integers against a Delta
    that is not the dict the gap was cut from.  A pair with a reduction
    chain splits its bases once, for the reduced Delta, and multiplies the
    split out twice: the fresh Delta is the second product.  It does not
    build Delta_M, which no check reads; the report builds `delta_original`
    when it is read.  Every other pair (closed, product and rank <= 2)
    splits its bases twice: the reduced Delta is Delta_M there, so the dict
    the gap was cut from must equal `delta_original`, which
    `rayleigh_difference` computes from a split of its own.  Only that
    `delta_original` is a `Polynomial` on return; the report builds its
    other fields when they are read.

    `unreduced_dominance` (Delta >> P on m itself, before the reduction) is
    `not chain and verdict`, by this lemma: if m is loopless of rank 3,
    {e,f} is independent and its chain X = cl{e,f} - {e,f} is non-empty,
    then Delta >> P fails on m.  Proof: take a in X, and read the ansatz of
    m itself.
    - a parallel to neither e nor f: then cl{a,e} = cl{a,f} = cl{e,f}, so
      f is in L(a,e) and e in L(a,f), and a's root holds -y_e*y_f with
      coefficient exactly -1.  No root holds y_e^2 or y_f^2 (e is in no
      L(.,e) and f in no L(.,f)), so 4P has a coefficient >= 1 on
      y_e^2*y_f^2.  Delta has no y_e or y_f at all.
    - a parallel to e (f is symmetric): rank 3 gives some u outside
      cl{e,f}.  Then cl{a,e} is e's parallel class and cl{a,f} = cl{e,f},
      so U(a) = E - cl{e,f} holds u, while C(a)*D(a) only multiplies points
      of cl{e,f}: a's root has coefficient exactly 1 on y_a*y_u.  A root
      holds y_a^2 only if its own a' lies in cl{e,f}, and y_u^2 only if a'
      does not, so no root has both, and 4P has a coefficient >= 1 on
      y_a^2*y_u^2.  No basis holds both a and e, so M_e^f and M_ef have no
      y_a, and y_a has exponent <= 1 in both products of Delta.
    Without a chain m is its own reduced matroid, and the value is `verdict`.

    Inputs must be loopless; rank > 3 is rejected (non-Rayleigh matroids
    exist there, and the Ansatz is not defined).
    """
    ctx = PairContext(m, e, f)
    if m.rank > 3:
        raise ValueError("certificate Ansatz undefined above rank 3")
    if m.loops():
        raise ValueError(
            f"certify requires a loopless matroid (loops: {sorted(m.loops())})"
        )
    ie, jf = m._index[e], m._index[f]
    chain = _closure_chain(m, ie, jf) if m.rank == 3 else None
    if chain is None:
        # Rank <= 2: Delta itself is >> 0.  Dependent pair: no basis contains
        # both e and f, so Delta = M_e^f * M_f^e >> 0.  Either way P = 0.
        mode = "product" if m.rank == 3 else "rank-le-2"
        pair = 1 << ie | 1 << jf
        closed = m.rank < 3 and m.closure_mask(pair) == pair
        chain, squares = 0, []
    else:
        mode, closed = "reduced-ansatz", True
        squares = _squares(m, ie, jf, chain)
    four_p = _four_p_terms(squares)
    split = basis_split(m, ie, jf, chain)
    red_terms = delta_from_split(*split)
    gap = _gap(red_terms, four_p)
    if chain:
        _check_identity(delta_from_split(*split), four_p, gap)
        delta_orig = None  # the report builds Delta_M when it is read
    else:
        # Nothing is deleted, so the reduced Delta is Delta_M itself.
        _check_identity(red_terms, four_p, gap)
        delta_orig = rayleigh_difference(ctx)
        if from_packed(red_terms, m.elements) != delta_orig:
            raise RuntimeError(_IDENTITY_VIOLATED)
    verdict = min(gap.values(), default=0) >= 0
    unreduced = None
    if mode == "reduced-ansatz":
        if _simple_after_deleting(m, chain):
            _check_closed_pair_structure(m, ie, jf, red_terms, four_p, squares)
        unreduced = not chain and verdict  # the lemma in the docstring
    return CertificateReport(
        pair=(e, f),
        mode=mode,
        reduced_pair_closed=closed,
        reduction_chain=_labels(m, chain),
        verdict=verdict,
        delta_input=delta_orig,
        unreduced_dominance=unreduced,
        matroid=m,
        four_p=four_p,
        gap=gap,
        roots=tuple((square.a, square.root) for square in squares),
    )


# ---------------------------------------------------------------------------
# Coefficient tables.
#
# For a simple matroid with {e,f} closed, the coefficient of a degree-4
# monomial in Delta{e,f} (and each of its two product terms) depends only on
# the isomorphism type of the restriction to {e,f} plus the monomial's
# support, with {e,f} marked setwise and, for the y_g^2*y_h*y_i shape, g
# marked as well.  The rows below enumerate all types that occur, keyed by
# the named 4/5/6-point instances; `positive` is the coefficient in
# M_e^f*M_f^e, `negative` the one in M_{ef}*M^{ef}.  The Ansatz coefficient
# additionally depends on the ambient matroid (extra points can contribute
# C(a)^2*D(a)^2 terms), so each row carries the full set of attainable
# values, tagged by a case note.

_F = Fraction


class TableRow(NamedTuple):
    family: str
    label: str
    instance: str
    pair: tuple[str, str]
    g: Optional[str]
    positive: int
    negative: int
    delta: int
    p_allowed: tuple[Fraction, ...]
    note: str


def _row(family, instance, pair, g, positive, negative, delta, p_allowed, note):
    roman = instance.rsplit(".", 1)[-1]
    label = f"{roman}{{{pair[0]},{pair[1]}}}" + (f",{g}" if g is not None else "")
    return TableRow(
        family, label, instance, pair, g, positive, negative, delta,
        tuple(p_allowed), note,
    )


_TABLE_ROWS = {
    GGHH: (
        _row(GGHH, "fig1.I", ("1", "2"), None, 0, 0, 0, (_F(0),), ""),
        _row(GGHH, "fig1.II", ("1", "2"), None, 1, 0, 1,
             (_F(1, 2), _F(3, 4), _F(1)), "A"),
    ),
    GGHI: (
        _row(GGHI, "fig2.I", ("1", "2"), "3", 0, 0, 0, (_F(0),), ""),
        _row(GGHI, "fig2.II", ("1", "2"), "3", 1, 1, 0, (_F(0),), ""),
        _row(GGHI, "fig2.II", ("1", "2"), "5", 1, 1, 0, (_F(0),), ""),
        _row(GGHI, "fig2.III", ("1", "2"), "3", 2, 0, 2, (_F(1, 2),), "B"),
        _row(GGHI, "fig2.III", ("1", "3"), "2", 2, 1, 1, (_F(1, 2), _F(1)), "C"),
        _row(GGHI, "fig2.III", ("1", "3"), "4", 1, 1, 0, (_F(0),), ""),
        _row(GGHI, "fig2.IV", ("1", "2"), "3", 2, 1, 1, (_F(1, 2),), "B"),
    ),
    GHIJ: (
        _row(GHIJ, "fig3.I", ("1", "2"), None, 0, 0, 0, (_F(0),), ""),
        _row(GHIJ, "fig3.II", ("1", "2"), None, 3, 3, 0, (_F(0),), ""),
        _row(GHIJ, "fig3.III", ("1", "2"), None, 6, 0, 6, (_F(0),), ""),
        _row(GHIJ, "fig3.III", ("1", "3"), None, 3, 3, 0, (_F(0),), ""),
        _row(GHIJ, "fig3.IV", ("1", "2"), None, 2, 4, -2, (_F(-2),), "D"),
        _row(GHIJ, "fig3.V", ("1", "4"), None, 3, 4, -1, (_F(-1),), "E"),
        _row(GHIJ, "fig3.V", ("4", "5"), None, 4, 3, 1, (_F(-1, 2),), "F"),
        _row(GHIJ, "fig3.VI", ("1", "2"), None, 4, 4, 0, (_F(-1, 2),), "G"),
        _row(GHIJ, "fig3.VI", ("1", "3"), None, 5, 3, 2, (_F(0),), ""),
        _row(GHIJ, "fig3.VI", ("3", "6"), None, 4, 4, 0, (_F(0),), ""),
        _row(GHIJ, "fig3.VII", ("1", "2"), None, 5, 4, 1, (_F(0), _F(1)), "H"),
        _row(GHIJ, "fig3.VIII", ("1", "2"), None, 6, 3, 3, (_F(0),), ""),
        _row(GHIJ, "fig3.VIII", ("1", "4"), None, 5, 4, 1, (_F(0),), ""),
        _row(GHIJ, "fig3.IX", ("1", "2"), None, 6, 4, 2, (_F(0),), ""),
    ),
}


class RowCheck(NamedTuple):
    row: TableRow
    positive: int
    negative: int
    delta: int
    p_value: Fraction
    ok: bool


class RowUsage(NamedTuple):
    label: str
    occurrences: int
    p_observed: tuple[Fraction, ...]


class TableReport(NamedTuple):
    family: str
    checks: tuple[RowCheck, ...]
    scan_rows: tuple[RowUsage, ...]
    scan_occurrences: int
    unmatched: tuple[str, ...]
    mismatches: tuple[str, ...]
    uncovered: tuple[str, ...]
    all_match: bool


def _pinned_key(
    lines: tuple[int, ...], n: int, e: int, f: int, support: tuple[int, ...],
    family: str,
) -> tuple[int, ...]:
    """Canonical form of the restriction of a simple rank-3 matroid on n
    points with these line masks to {e,f} plus a monomial's support, with
    {e,f} pinned setwise and, for the GGHI shape, g = support[0] pointwise.
    All of them are positions.

    Minimal sorted line-mask tuple over all relabelings sending {e,f} to
    positions {0,1} and g to position 2.  The restriction's lines are the
    lines that keep at least 3 of their points, cut down to the kept set;
    the other positions lie on none of them and take the last cell, so the
    form is the one the restriction itself would give.
    """
    if family == GGHI:
        cells = [[e, f], [support[0]], list(support[1:])]
    else:
        cells = [[e, f], list(support)]
    keep = sum(1 << i for i in support) | 1 << e | 1 << f
    cells.append([i for i in range(n) if not keep >> i & 1])
    masks = [line & keep for line in lines if (line & keep).bit_count() >= 3]
    return canonical_form(masks, n, cells)


def _pair_terms(m: Matroid, e: int, f: int) -> tuple[dict[int, int], ...]:
    """(M_e^f * M_f^e, M_{ef} * M^{ef}, 4P) as packed terms, for the pair at
    positions e, f."""
    only_e, only_f, both, neither = basis_split(m, e, f)
    return (
        add_products({}, only_e, only_f),
        add_products({}, both, neither),
        _four_p_terms(_squares(m, e, f)),
    )


def _shape_supports(others: list[int], family: str):
    """All supports of the family's shape over these positions, in a fixed
    order, each listed as `pack_shape` takes it."""
    if family == GGHH:
        yield from itertools.combinations(others, 2)
    elif family == GGHI:
        for g in others:
            for h, i in itertools.combinations([x for x in others if x != g], 2):
                yield (g, h, i)
    else:
        yield from itertools.combinations(others, 4)


def _where(pair: str, m: Matroid, support: tuple[int, ...], family: str) -> str:
    """How a problem line names a scanned monomial: built only for problems."""
    labels = [m.elements[i] for i in support]
    return f"{pair} monomial {dict(sorted(zip(labels, _SHAPE_EXPONENTS[family])))}"


def _scan_matroids() -> list[tuple[str, Matroid]]:
    from .catalog import enumerate_simple_rank3, named

    out = []
    for n in (4, 5, 6):
        for idx, cls in enumerate(enumerate_simple_rank3(n).classes):
            out.append((f"n={n} class {idx}", cls))
    out.append(("bowtie7", named("bowtie7")))
    return out


def table_coefficients(shape_family: str) -> TableReport:
    """Verify one coefficient table (GGHH, GGHI or GHIJ).

    Two passes.  Row fidelity: on each row's own named instance, the
    coefficients of the designated monomial in M_e^f*M_f^e, M_{ef}*M^{ef} and
    the Ansatz must match the embedded values.  Catalog scan: every monomial
    of the family's shape, over every closed pair of every simple rank-3
    matroid on <= 6 points (plus the 7-point witness `bowtie7`), must
    classify — via the canonical form of the restriction with the pair and g
    pinned — to exactly one row, with the observed Delta coefficients equal to
    the row's and the observed Ansatz coefficient within the row's allowed
    set.  Coverage requires every row to be hit and every allowed Ansatz
    value to be observed somewhere.
    """
    from .catalog import named

    if shape_family not in _TABLE_ROWS:
        raise ValueError(f"unknown shape family {shape_family!r}")
    rows = _TABLE_ROWS[shape_family]

    checks = []
    rows_by_key: dict[tuple, TableRow] = {}
    for row in rows:
        inst = named(row.instance)
        index = inst._index
        others = [x for x in inst.elements if x not in row.pair]
        if row.g is not None:
            support = (row.g,) + tuple(x for x in others if x != row.g)
        else:
            support = tuple(others)
        positions = tuple(index[x] for x in support)
        e, f = index[row.pair[0]], index[row.pair[1]]
        positive, negative, four_p = _pair_terms(inst, e, f)
        mono = pack_shape(row.family, positions)
        cpos, cneg = positive.get(mono, 0), negative.get(mono, 0)
        pval = Fraction(four_p.get(mono, 0), 4)
        ok = (
            cpos == row.positive
            and cneg == row.negative
            and cpos - cneg == row.delta
            and pval in row.p_allowed
        )
        checks.append(
            RowCheck(row, cpos, cneg, cpos - cneg, pval, ok)
        )
        key = _pinned_key(line_masks(inst), inst.n, e, f, positions, row.family)
        if key in rows_by_key:
            raise RuntimeError(f"ambiguous table rows: {rows_by_key[key].label} "
                               f"and {row.label} share a canonical form")
        rows_by_key[key] = row

    usage = {row.label: 0 for row in rows}
    observed: dict[str, set[Fraction]] = {row.label: set() for row in rows}
    unmatched: list[str] = []
    mismatches: list[str] = []
    occurrences = 0
    for mname, m in _scan_matroids():
        lines = line_masks(m)
        for ie, jf in itertools.combinations(range(m.n), 2):
            ef = 1 << ie | 1 << jf
            if m.closure_mask(ef) != ef:
                continue  # {e,f} is not closed: it spans a line
            pair = f"{mname} pair {{{m.elements[ie]},{m.elements[jf]}}}"
            positive, negative, four_p = _pair_terms(m, ie, jf)
            others = [i for i in range(m.n) if i not in (ie, jf)]
            for support in _shape_supports(others, shape_family):
                occurrences += 1
                row = rows_by_key.get(
                    _pinned_key(lines, m.n, ie, jf, support, shape_family)
                )
                if row is None:
                    unmatched.append(_where(pair, m, support, shape_family))
                    continue
                usage[row.label] += 1
                key = pack_shape(shape_family, support)
                cpos, cneg = positive.get(key, 0), negative.get(key, 0)
                pval = Fraction(four_p.get(key, 0), 4)
                observed[row.label].add(pval)
                if (cpos, cneg) != (row.positive, row.negative):
                    mismatches.append(
                        f"{_where(pair, m, support, shape_family)}: expected "
                        f"{row.label} {row.positive}-{row.negative}, got {cpos}-{cneg}"
                    )
                if pval not in row.p_allowed:
                    mismatches.append(
                        f"{_where(pair, m, support, shape_family)}: ansatz "
                        f"coefficient {pval} not in "
                        f"{[str(v) for v in row.p_allowed]} for {row.label}"
                    )

    uncovered: list[str] = []
    for row in rows:
        if usage[row.label] == 0:
            uncovered.append(f"row {row.label} never occurred in the scan")
        for value in row.p_allowed:
            if value not in observed[row.label]:
                uncovered.append(
                    f"row {row.label}: ansatz value {value} never observed"
                )

    all_match = (
        all(c.ok for c in checks)
        and not unmatched
        and not mismatches
        and not uncovered
    )
    return TableReport(
        family=shape_family,
        checks=tuple(checks),
        scan_rows=tuple(
            RowUsage(row.label, usage[row.label], tuple(sorted(observed[row.label])))
            for row in rows
        ),
        scan_occurrences=occurrences,
        unmatched=tuple(unmatched),
        mismatches=tuple(mismatches),
        uncovered=tuple(uncovered),
        all_match=all_match,
    )
