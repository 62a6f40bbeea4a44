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
from functools import reduce
from operator import countOf, itemgetter, or_
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
    shape_text,
)
from .rayleigh import (
    _DELTA,
    _pair_positions,
    _product_keys,
    _products,
    _split,
    _triple_positions,
    closed_pair_filter,
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


# A NamedTuple's constructor is a Python function around this C call; hot
# paths call it directly with the fields as one tuple, in field order.
_new_record = tuple.__new__


# Bit i of a ground-set mask -> the packed variable y_i, for every position
# a matroid can have.
_PACKED_Y = {1 << i: 1 << PACKED_BITS * i for i in range(64)}


def _squares(m: Matroid, e: int, f: int, deleted: int = 0) -> list[_Square]:
    """The squares for every position a outside the positions e, f and the
    `deleted` bitmask, in ground-set order.

    With `deleted`, the squares of m with those positions deleted, on m's
    own positions: deletion restricts the rank function, so
    cl_{M\\X}(A) = cl_M(A) - X.  Each root is read off the bits of its
    masks against `_PACKED_Y`.
    """
    ys = _PACKED_Y
    keep = ((1 << m.n) - 1) & ~deleted
    closure = m.closure_mask
    squares = []
    rest = keep & ~(1 << e | 1 << f)
    while rest:
        bit = rest & -rest
        rest ^= bit
        ae, af = bit | 1 << e, bit | 1 << f
        cl_ae, cl_af = closure(ae) & keep, closure(af) & keep
        l_ae, l_af = cl_ae & ~ae, cl_af & ~af
        u = keep & ~(cl_ae | cl_af)
        y_a = ys[bit]
        root = {}
        x = u
        while x:
            low = x & -x
            root[y_a + ys[low]] = 1
            x ^= low
        if l_ae and l_af:  # -C(a)*D(a); L(a,e) and L(a,f) share a's parallels
            cs = []
            x = l_ae
            while x:
                low = x & -x
                cs.append(ys[low])
                x ^= low
            get = root.get
            x = l_af
            while x:
                low = x & -x
                d = ys[low]
                for c in cs:
                    root[c + d] = get(c + d, 0) - 1
                x ^= low
        squares.append(_new_record(_Square, (bit.bit_length() - 1, l_ae, l_af, u, root)))
    return squares


def _four_p_terms(squares: list[_Square]) -> dict[int, int]:
    """4P, the plain sum of the squares, as packed terms."""
    four_p: dict[int, int] = {}
    for square in squares:
        add_square(four_p, square.root)
    return four_p


def ansatz_parts(m: Matroid, e: str, f: str, a: str) -> AnsatzParts:
    """Compute L(a,e), L(a,f), U(a) and the polynomials B, C, D, T for one a."""
    _require_rank3(m)
    ie, jf, ia = _triple_positions(m, e, f, a)
    square = next(sq for sq in _squares(m, ie, jf) if sq.a == ia)
    l_ae, l_af, u_a = (m._unmask(mask) for mask in square[1:4])
    return AnsatzParts(
        a, l_ae, l_af, u_a,
        Polynomial.sum_of_variables(u_a),
        Polynomial.sum_of_variables(l_ae),
        Polynomial.sum_of_variables(l_af),
        from_packed(add_square({}, square.root), m.elements),
    )


_IDENTITY_VIOLATED = "internal invariant violated: delta != P + residual"


def _check_identity(
    split: list[list[int]], four_p: dict[int, int], gap: dict[int, int]
) -> None:
    """4*Delta == 4P + gap in integers, that is Delta == P + residual, with
    Delta the `_DELTA` products of a basis split, compared as multisets.

    Delta is M_e^f*M_f^e - M_ef*M^ef, so it is the positive product keys of
    the split (one copy per pair of bases) less the negative ones.  Each
    total coefficient c of 4P + gap must be divisible by 4, and its key
    joins the other side |c|/4 times: the positive keys when c < 0, the
    negative ones when c > 0.  The identity holds iff the two sides are then
    equal as sorted lists.  The keys are listed by `_product_keys`, not
    counted in a dict, so the check shares no kernel with the products that
    went into the gap, which starts as -4P and adds 4*Delta from one of two
    sources: `add_products` with weight +-4 in `certify` for a pair with a
    reduction chain, and `rayleigh_difference`'s `_products` with weight
    +-1, scaled by 4, for every other pair.  A fault in either shows here.
    It cannot catch a wrong `four_p` (the gap is seeded with it) or a wrong
    chain mask (the split uses it); only the tests that compare reports
    with the minor-based Delta do.
    """
    positive, negative = _product_keys(split, _DELTA)
    total = dict(gap)
    get = total.get
    for key, coeff in four_p.items():
        total[key] = get(key, 0) + coeff
    for key, coeff in total.items():
        if coeff & 3:
            raise RuntimeError(_IDENTITY_VIOLATED)
        if coeff > 0:
            negative += [key] * (coeff >> 2)
        elif coeff:
            positive += [key] * (-coeff >> 2)
    positive.sort()
    negative.sort()
    if positive != negative:
        raise RuntimeError(_IDENTITY_VIOLATED)


def _check_closed_pair_structure(
    m: Matroid, e: int, f: int, gap: dict[int, int], four_p: dict[int, int],
    squares: list[_Square],
) -> None:
    """Structural facts that hold when m is simple and the pair at positions
    e, f is closed.

    Every monomial of Delta and of 4P (packed terms) is degree-4 in
    variables outside {e,f} with exponents <= 2, and each square's index
    sets partition cleanly.  Violations indicate a bug, hence RuntimeError.
    The keys of the gap 4*Delta - 4P are those of Delta and 4P together, so
    they are tested once: against the packed shapes for m's size, and their
    OR against the e and f fields.  Only when that fails is 4*Delta rebuilt
    as gap + 4P and the keys walked to name the violation, zero terms
    ignored: the nonzero monomials of Delta first, then those of 4P, each
    set against the shapes and then its OR against the fields.
    """
    pair = pack_mask(1 << e | 1 << f) * ((1 << PACKED_BITS) - 1)  # e and f fields
    shapes = packed_shapes(m.n)
    if not shapes.issuperset(gap) or reduce(or_, gap, 0) & pair:
        get = four_p.get
        four_delta = {key: coeff + get(key, 0) for key, coeff in gap.items()}
        for label, terms in (("delta", four_delta), ("ansatz", four_p)):
            keys = {key for key, coeff in terms.items() if coeff}
            if not keys <= shapes:
                mono = next(from_packed({min(keys - shapes): 1}, m.elements).terms())[0]
                raise RuntimeError(
                    f"internal invariant violated: {label} monomial {mono} "
                    f"is not of shape {' or '.join(map(shape_text, _SHAPE_EXPONENTS))}"
                )
            if reduce(or_, keys, 0) & pair:
                raise RuntimeError(
                    f"internal invariant violated: {label} mentions e or f"
                )
    ef = 1 << e | 1 << f
    for a, l_ae, l_af, u, _ in squares:
        if (l_ae | l_af | u) & (1 << a | ef):
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
    chain_mask = _closure_chain(m, *_pair_positions(m, e, f))
    if chain_mask is None:
        return ReductionResult(m, (), True)
    chain = m._labels(chain_mask)
    return ReductionResult(m.delete(chain) if chain else m, chain, False)


# ---------------------------------------------------------------------------
# Certification.


class CertificateReport(NamedTuple):
    """Outcome of certifying one pair.

    `delta`, `P` and `residual` refer to the certified (reduced) matroid;
    `delta = P + residual` exactly, and `verdict` holds iff every residual
    coefficient is nonnegative.  `delta_original` is the difference on the
    input matroid before reduction, and `unreduced_dominance` reports whether
    the dominance already held there (None outside the reduced-ansatz mode).
    It is decided by a lemma, not by a second ansatz: with a non-empty
    chain it is False, and without one the input is the reduced matroid, so
    it is `verdict`.  The lemma and its proof are in `certify`'s docstring.

    The fields are what `certify` decided on, as packed terms over the
    positions of the input `matroid` (see `poly.pack_mask`): `four_p` is
    4P, `gap` is 4*delta - 4P, and `roots` pairs the position of each
    square's a with its root.  `delta_input` is Delta_M for a pair without
    a reduction chain, the source of the 4*Delta that `certify` added to
    the gap's -4P seed, and None otherwise.  Every other attribute is
    computed from the fields on each read: `verdict`, `reduced_pair_closed` and
    `unreduced_dominance`, and the `Polynomial`s `P`, `residual`, `delta`
    (by `rayleigh_difference` on `lemma33_reduce`'s matroid) and
    `delta_original` (by `rayleigh_difference` on the input matroid when
    `delta_input` is None).  `delta_input` comes from `from_packed` and
    stays packed until it is rendered or evaluated.  The JSON report reads
    each at most once, and without a reduction chain prints the text of
    `delta_original` as `delta` too, since the two are equal there;
    `text_fields`, which the text certificate prints, reads only `delta`
    (`delta_original` without a chain), and `verify`'s text output reads
    none of the `Polynomial`s, so it decodes no monomial.
    """

    pair: tuple[str, str]
    mode: str  # "rank-le-2" | "product" | "reduced-ansatz"
    reduction_chain: tuple[str, ...]
    delta_input: Optional[Polynomial]  # Delta_M when certify built it, else None
    matroid: Matroid
    four_p: dict[int, int]
    gap: dict[int, int]
    roots: tuple[tuple[int, dict[int, int]], ...]

    _SHOWN = ("pair", "mode", "reduced_pair_closed", "reduction_chain",
              "verdict", "delta_original", "unreduced_dominance")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._SHOWN)
        return f"CertificateReport({shown})"

    @property
    def verdict(self) -> bool:
        return min(self.gap.values(), default=0) >= 0

    @property
    def reduced_pair_closed(self) -> bool:
        if self.mode != "rank-le-2":
            return self.mode == "reduced-ansatz"
        return closed_pair_filter(self.matroid, *self.pair)

    @property
    def unreduced_dominance(self) -> Optional[bool]:
        if self.mode != "reduced-ansatz":
            return None
        return not self.reduction_chain and self.verdict  # see certify

    @property
    def delta_original(self) -> Polynomial:
        if self.delta_input is not None:
            return self.delta_input
        return rayleigh_difference(self.matroid, *self.pair)

    @property
    def P(self) -> Polynomial:
        return from_packed(self.four_p, self.matroid.elements) * Fraction(1, 4)

    @property
    def residual(self) -> Polynomial:
        quarter = {
            key: coeff >> 2 if coeff & 3 == 0 else Fraction(coeff, 4)
            for key, coeff in self.gap.items()
        }
        return from_packed(quarter, self.matroid.elements)

    @property
    def delta(self) -> Polynomial:
        if self.mode != "reduced-ansatz":
            return self.delta_original
        reduced = lemma33_reduce(self.matroid, *self.pair).matroid
        return rayleigh_difference(reduced, *self.pair)

    def text_fields(self) -> dict:
        """The rendered `delta`, `ansatz`, `residual` and `squares` of the
        JSON report: what `certificate --format text` prints.  Without a
        reduction chain `delta` is the text of `delta_original`, since the
        two are equal there, so it builds no Delta of its own."""
        labels = self.matroid.elements
        delta = self.delta if self.reduction_chain else self.delta_original
        return {
            "delta": format_polynomial(delta),
            "ansatz": format_packed(self.four_p, labels, 4),
            "residual": format_packed(self.gap, labels, 4),
            "squares": [
                [labels[a], format_packed(root, labels)] for a, root in self.roots
            ],
        }

    def to_json_dict(self) -> dict:
        text = self.text_fields()
        if self.reduction_chain:
            original = format_polynomial(self.delta_original)
        else:
            original = text["delta"]
        return {
            "schema": REPORT_SCHEMA,
            "kind": "certificate",
            "pair": list(self.pair),
            "mode": self.mode,
            "reduced_pair_closed": self.reduced_pair_closed,
            "reduction_chain": list(self.reduction_chain),
            "delta": text["delta"],
            "ansatz": text["ansatz"],
            "residual": text["residual"],
            "residual_terms": len(self.gap) - countOf(self.gap.values(), 0),
            "verdict": self.verdict,
            "squares": text["squares"],
            "delta_original": original,
            "unreduced_dominance": self.unreduced_dominance,
        }


_A_AND_ROOT = itemgetter(0, 4)  # a _Square's (a, root): one entry of `roots`


def certify(m: Matroid, e: str, f: str) -> CertificateReport:
    """Certify that Delta{e,f} is nonnegative on the positive orthant.

    Rank <= 2: Delta itself is coefficientwise nonnegative, so P = 0.
    Rank 3, dependent pair: the negative product vanishes and Delta is a
    product of basis generating polynomials, again >> 0 with P = 0.
    Rank 3 otherwise: reduce the pair to a closed one, build the Ansatz P on
    the reduced matroid and check Delta_reduced >> P.  The coefficient
    comparison is done on 4*Delta vs 4*P so that it runs in integers.

    Everything is decided and checked on packed terms: a monomial is one int
    with a 3-bit exponent per ground-set position of m (`poly.pack_mask`),
    so a product of monomials is an integer addition.  Delta multiplies two
    bases (exponents <= 2) and 4P squares roots with exponents <= 2, so no
    exponent exceeds 4 and a 3-bit field is enough.  No reduced `Matroid` is
    built: the chain is read off m's memoised closure of {e,f}, the reduced
    squares come from m's flats less the chain, and the reduced Delta from
    the bases of m that avoid it.  Every gap is built by one recipe: it
    starts as -4P and adds 4*Delta, which has two sources.  A pair with a
    reduction chain splits its bases once and builds no Delta dict:
    `add_products` adds the split's `_DELTA` products into the gap with
    weight +-4.  It does not build Delta_M either, which no check reads, and
    the report builds `delta_original` when it is read.  Every other pair
    (closed, product and rank <= 2) has the reduced Delta equal to Delta_M:
    the gap adds 4 times the packed terms of `delta_original`, which
    `rayleigh_difference` builds from a split of its own, and certify's
    split feeds only the identity check.  A `delta_original` that is not
    packed over m's labels is an invariant violation.  On every call the
    identity 4*Delta = 4P + (4*Delta - 4P) is then checked in integers
    against the product keys of certify's own basis split, compared as
    sorted multisets (`_check_identity`), which share no kernel with the
    products in the gap: a fault in the weight +-4 accumulation, or in
    `_products` on the other pairs, shows there.  `delta_original` is the
    one `Polynomial` on return, and it is still packed, so certify decodes
    no monomial on any pair.  The report builds its other fields when they
    are read, and decodes a `Polynomial` only when it renders or evaluates
    one.

    What depends only on m is memoised on m, so a pair pays only for its
    own terms: the share masks (loops, the chain's test), the pair flats
    (chain and squares), the packed bases (split) and the simplicity
    witnesses, which let `m.is_simple(chain)` decide whether the structure
    checks run by testing only m's loops and elements with a parallel
    partner.  The squares and the report are tuples built without a Python
    constructor call per record, and the chain's labels are read off its
    set bits.

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
    ie, jf = _pair_positions(m, e, f)
    if m.rank > 3:
        raise ValueError("certificate Ansatz undefined above rank 3")
    if 0 in m._shares():  # a loop shares a basis with nothing
        raise ValueError(
            f"certify requires a loopless matroid (loops: {sorted(m.loops())})"
        )
    chain = _closure_chain(m, ie, jf) if m.rank == 3 else None
    if chain is None:
        # Rank <= 2: Delta itself is >> 0.  Dependent pair: no basis contains
        # both e and f, so Delta = M_e^f * M_f^e >> 0.  Either way P = 0.
        mode = "product" if m.rank == 3 else "rank-le-2"
        chain, squares = 0, []
    else:
        mode = "reduced-ansatz"
        squares = _squares(m, ie, jf, chain)
    four_p = _four_p_terms(squares)
    split = _split(m, (ie, jf), chain)
    gap = {key: -coeff for key, coeff in four_p.items()}  # then add 4*Delta
    if chain:
        for s, t, sign in _DELTA:
            add_products(gap, split[s], split[t], 4 * sign)
        delta_orig = None  # the report builds Delta_M when it is read
    else:
        # Nothing is deleted, so the reduced Delta is Delta_M itself.
        delta_orig = rayleigh_difference(m, e, f)
        packed = delta_orig._packed
        if packed is None or packed[1] != m.elements:
            raise RuntimeError(_IDENTITY_VIOLATED)
        get = gap.get
        for key, coeff in packed[0].items():
            gap[key] = get(key, 0) + 4 * coeff
    _check_identity(split, four_p, gap)
    if mode == "reduced-ansatz" and m.is_simple(chain):
        _check_closed_pair_structure(m, ie, jf, gap, four_p, squares)
    return CertificateReport(
        (e, f), mode, m._labels(chain) if chain else (), delta_orig, m, four_p, gap,
        tuple(map(_A_AND_ROOT, squares)),
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
    """One expected row; its family is its key in `_TABLE_ROWS`."""

    instance: str
    pair: tuple[str, str]
    g: Optional[str]
    positive: int
    negative: int
    p_allowed: tuple[Fraction, ...]
    note: str

    @property
    def label(self) -> str:
        roman = self.instance.rsplit(".", 1)[-1]
        e, f = self.pair
        return f"{roman}{{{e},{f}}}" + (f",{self.g}" if self.g is not None else "")

    @property
    def delta(self) -> int:
        return self.positive - self.negative


_TABLE_ROWS = {
    GGHH: (
        TableRow("fig1.I", ("1", "2"), None, 0, 0, (_F(0),), ""),
        TableRow("fig1.II", ("1", "2"), None, 1, 0, (_F(1, 2), _F(3, 4), _F(1)), "A"),
    ),
    GGHI: (
        TableRow("fig2.I", ("1", "2"), "3", 0, 0, (_F(0),), ""),
        TableRow("fig2.II", ("1", "2"), "3", 1, 1, (_F(0),), ""),
        TableRow("fig2.II", ("1", "2"), "5", 1, 1, (_F(0),), ""),
        TableRow("fig2.III", ("1", "2"), "3", 2, 0, (_F(1, 2),), "B"),
        TableRow("fig2.III", ("1", "3"), "2", 2, 1, (_F(1, 2), _F(1)), "C"),
        TableRow("fig2.III", ("1", "3"), "4", 1, 1, (_F(0),), ""),
        TableRow("fig2.IV", ("1", "2"), "3", 2, 1, (_F(1, 2),), "B"),
    ),
    GHIJ: (
        TableRow("fig3.I", ("1", "2"), None, 0, 0, (_F(0),), ""),
        TableRow("fig3.II", ("1", "2"), None, 3, 3, (_F(0),), ""),
        TableRow("fig3.III", ("1", "2"), None, 6, 0, (_F(0),), ""),
        TableRow("fig3.III", ("1", "3"), None, 3, 3, (_F(0),), ""),
        TableRow("fig3.IV", ("1", "2"), None, 2, 4, (_F(-2),), "D"),
        TableRow("fig3.V", ("1", "4"), None, 3, 4, (_F(-1),), "E"),
        TableRow("fig3.V", ("4", "5"), None, 4, 3, (_F(-1, 2),), "F"),
        TableRow("fig3.VI", ("1", "2"), None, 4, 4, (_F(-1, 2),), "G"),
        TableRow("fig3.VI", ("1", "3"), None, 5, 3, (_F(0),), ""),
        TableRow("fig3.VI", ("3", "6"), None, 4, 4, (_F(0),), ""),
        TableRow("fig3.VII", ("1", "2"), None, 5, 4, (_F(0), _F(1)), "H"),
        TableRow("fig3.VIII", ("1", "2"), None, 6, 3, (_F(0),), ""),
        TableRow("fig3.VIII", ("1", "4"), None, 5, 4, (_F(0),), ""),
        TableRow("fig3.IX", ("1", "2"), None, 6, 4, (_F(0),), ""),
    ),
}


class RowReport(NamedTuple):
    """One table row's results: its monomial's coefficients in M_e^f*M_f^e,
    M_{ef}*M^{ef} and P on its own instance, and the scanned monomials
    classified to it, counted, with the Ansatz coefficients observed."""

    row: TableRow
    positive: int
    negative: int
    p_value: Fraction
    occurrences: int
    p_observed: tuple[Fraction, ...]

    @property
    def delta(self) -> int:
        return self.positive - self.negative

    @property
    def ok(self) -> bool:
        """The row's own instance gives the row's values."""
        row = self.row
        return (self.positive, self.negative) == (
            row.positive, row.negative) and self.p_value in row.p_allowed


class TableReport(NamedTuple):
    family: str
    rows: tuple[RowReport, ...]
    unmatched: tuple[str, ...]
    mismatches: tuple[str, ...]
    uncovered: tuple[str, ...]

    @property
    def scan_occurrences(self) -> int:
        """Every scanned monomial: those classified to a row, then the rest."""
        return sum(r.occurrences for r in self.rows) + len(self.unmatched)

    @property
    def all_match(self) -> bool:
        return all(r.ok for r in self.rows) and not (
            self.unmatched or self.mismatches or self.uncovered)


def _pinned_key(
    lines: tuple[int, ...], n: int, e: int, f: int, support: tuple[int, ...],
    family: str,
) -> tuple[int, ...]:
    """Canonical form of the restriction of a simple rank-3 matroid on n
    points with these line masks to {e,f} plus a monomial's support, with
    {e,f} pinned setwise and the support's positions pinned by exponent:
    for the GGHI shape, g = support[0] pointwise.  All of them are positions.

    Minimal sorted line-mask tuple over all relabelings sending {e,f} to
    positions {0,1} and g to position 2.  The restriction's lines are the
    lines that keep at least 3 of their points, cut down to the kept set;
    the other positions lie on none of them and take the last cell, so the
    form is the one the restriction itself would give.
    """
    exps = _SHAPE_EXPONENTS[family]
    cells = [[e, f]] + [
        [i for i, x in zip(support, exps) if x == exp] for exp in (2, 1) if exp in exps
    ]
    keep = sum(1 << i for i in support) | 1 << e | 1 << f
    cells.append([i for i in range(n) if not keep >> i & 1])
    masks = [line & keep for line in lines if (line & keep).bit_count() >= 3]
    return canonical_form(masks, n, cells)


def _pair_terms(m: Matroid, e: int, f: int) -> tuple[dict[int, int], ...]:
    """(M_e^f * M_f^e, -M_{ef} * M^{ef}, 4P) as packed terms, for the pair
    at positions e, f: each product of the `_DELTA` table on its own, read
    off the pair's `_split`, then 4P."""
    split = _split(m, (e, f))
    return (
        *(_products(split, (product,)) for product in _DELTA),
        _four_p_terms(_squares(m, e, f)),
    )


def _coefficients(terms: tuple[dict[int, int], ...], key: int) -> tuple[int, int, Fraction]:
    """The coefficients of the packed monomial `key` in M_e^f * M_f^e, in
    M_{ef} * M^{ef} and in P, from the terms of `_pair_terms`."""
    positive, negative, four_p = terms
    return positive.get(key, 0), -negative.get(key, 0), Fraction(four_p.get(key, 0), 4)


def _shape_supports(others: list[int], family: str):
    """All supports of the family's shape over these positions, each listed
    as `pack_shape` takes it: the squared positions in combination order,
    then each combination of the rest."""
    squared = _SHAPE_EXPONENTS[family].count(2)
    linear = len(_SHAPE_EXPONENTS[family]) - squared
    for sq in itertools.combinations(others, squared):
        for lin in itertools.combinations([x for x in others if x not in sq], linear):
            yield sq + lin


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

    own: dict[str, tuple[int, int, Fraction]] = {}  # label -> on its own instance
    rows_by_key: dict[tuple, TableRow] = {}
    for row in rows:
        inst = named(row.instance)
        index = inst._index
        others = [x for x in inst.elements if x not in row.pair]
        support = sorted(others, key=lambda x: x != row.g)  # a squared g first
        positions = tuple(index[x] for x in support)
        e, f = index[row.pair[0]], index[row.pair[1]]
        own[row.label] = _coefficients(
            _pair_terms(inst, e, f), pack_shape(shape_family, positions)
        )
        key = _pinned_key(line_masks(inst), inst.n, e, f, positions, shape_family)
        if key in rows_by_key:
            raise RuntimeError(f"ambiguous table rows: {rows_by_key[key].label} "
                               f"and {row.label} share a canonical form")
        rows_by_key[key] = row

    usage = {row.label: 0 for row in rows}
    observed: dict[str, set[Fraction]] = {row.label: set() for row in rows}
    unmatched: list[str] = []
    mismatches: list[str] = []
    for mname, m in _scan_matroids():
        lines = line_masks(m)
        for ie, jf in itertools.combinations(range(m.n), 2):
            ef = 1 << ie | 1 << jf
            if m.closure_mask(ef) != ef:
                continue  # {e,f} is not closed: it spans a line
            pair = f"{mname} pair {{{m.elements[ie]},{m.elements[jf]}}}"
            terms = _pair_terms(m, ie, jf)
            others = [i for i in range(m.n) if i not in (ie, jf)]
            for support in _shape_supports(others, shape_family):
                row = rows_by_key.get(
                    _pinned_key(lines, m.n, ie, jf, support, shape_family)
                )
                if row is None:
                    unmatched.append(_where(pair, m, support, shape_family))
                    continue
                usage[row.label] += 1
                cpos, cneg, pval = _coefficients(
                    terms, pack_shape(shape_family, support)
                )
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

    return TableReport(
        family=shape_family,
        rows=tuple(
            RowReport(row, *own[row.label], usage[row.label],
                      tuple(sorted(observed[row.label])))
            for row in rows
        ),
        unmatched=tuple(unmatched),
        mismatches=tuple(mismatches),
        uncovered=tuple(uncovered),
    )
