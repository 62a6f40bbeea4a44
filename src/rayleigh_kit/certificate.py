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
of expected values per type.  That code lives in `tables`, which only this
entry point imports, when it is called.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import countOf, itemgetter, or_
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import REPORT_SCHEMA
from .matroid import Matroid
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
    packed_shapes,
    shape_text,
)
from .rayleigh import (
    _DELTA,
    _pair_positions,
    _product_keys,
    _split,
    _triple_positions,
    closed_pair_filter,
    rayleigh_difference,
)

if TYPE_CHECKING:
    from .tables import TableReport


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


def _four_delta(gap: dict[int, int], four_p: dict[int, int]) -> dict[int, int]:
    """4*Delta = gap + 4P as packed terms, over both key sets: the one place
    where the two are summed.  A key whose sum is 0 stays, with value 0."""
    total = dict(gap)
    get = total.get
    for key, coeff in four_p.items():
        total[key] = get(key, 0) + coeff
    return total


def _quarter(terms: dict[int, int], labels: tuple[str, ...]) -> Polynomial:
    """The packed terms divided by 4, as a `Polynomial` over these labels."""
    return from_packed({
        key: coeff >> 2 if coeff & 3 == 0 else Fraction(coeff, 4)
        for key, coeff in terms.items()
    }, labels)


def _check_identity(
    split: list[list[int]], four_p: dict[int, int], gap: dict[int, int]
) -> None:
    """4*Delta == 4P + gap in integers, that is Delta == P + residual, with
    Delta the `_DELTA` products of a basis split, compared as multisets.

    Delta is M_e^f*M_f^e - M_ef*M^ef, so it is the positive product keys of
    the split (one copy per pair of bases) less the negative ones.  Each
    coefficient c of `_four_delta(gap, four_p)` must be divisible by 4, and
    its key joins the other side |c|/4 times: the positive keys when c < 0,
    the negative ones when c > 0.  The identity holds iff the two sides are
    then equal as sorted lists.  That 4*Delta is the one the report renders
    as `delta`.  The keys are listed by `_product_keys`, not counted in a
    dict, so the check shares no kernel with the products that went into the
    gap, which starts as -4P and adds 4*Delta from one of two sources:
    `add_products` with weight +-4 in `certify` for a pair with a reduction
    chain, and `rayleigh_difference`'s `_products` with weight +-1, scaled
    by 4, for every other pair.  A fault in either shows here.  It cannot
    catch a wrong `four_p` (the gap is seeded with it) or a wrong chain mask
    (the split uses it); only the tests that compare reports with Delta of
    the minor M\\X do.
    """
    positive, negative = _product_keys(split, _DELTA)
    for key, coeff in _four_delta(gap, four_p).items():
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
        for label, terms in (("delta", _four_delta(gap, four_p)), ("ansatz", four_p)):
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

    The fields are the packed terms that `certify` checked, over the
    positions of the input `matroid` (see `poly.pack_mask`): `four_p` is
    4P, `gap` is 4*delta - 4P on the reduced matroid, and `roots` pairs the
    position of each square's a with its root.  Every other attribute is
    computed from the fields on each read, and none is cached:
    - `verdict` holds iff no gap coefficient is negative;
    - `P` is `four_p` / 4 and `residual` is `gap` / 4;
    - `delta`, Delta of the reduced matroid, is (gap + 4P) / 4 by
      `_four_delta`, the 4*Delta that `certify`'s identity check compared,
      on a pair with a reduction chain, and `delta_original` on any other
      pair, where the two are equal; so `delta = P + residual` exactly;
    - `delta_original` is `rayleigh_difference` on the input matroid;
    - `unreduced_dominance` says whether the dominance already held before
      the reduction (None outside the reduced-ansatz mode).  It is decided
      by a lemma, not by a second ansatz: with a non-empty chain it is
      False, and without one the input is the reduced matroid, so it is
      `verdict`.  The lemma and its proof are in `certify`'s docstring.
    No read builds a `Matroid`.  `text_fields` renders `delta` from the
    packed 4*Delta, so the text certificate builds no Delta; the JSON
    report adds the text of `delta_original`, which it builds only on a
    chained pair, since without a chain it is the `delta` text.
    """

    pair: tuple[str, str]
    mode: str  # "rank-le-2" | "product" | "reduced-ansatz"
    reduction_chain: tuple[str, ...]
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
        return rayleigh_difference(self.matroid, *self.pair)

    @property
    def P(self) -> Polynomial:
        return from_packed(self.four_p, self.matroid.elements) * Fraction(1, 4)

    @property
    def residual(self) -> Polynomial:
        return _quarter(self.gap, self.matroid.elements)

    @property
    def delta(self) -> Polynomial:
        if not self.reduction_chain:
            return self.delta_original
        return _quarter(_four_delta(self.gap, self.four_p), self.matroid.elements)

    def text_fields(self) -> dict:
        """The rendered `delta`, `ansatz`, `residual` and `squares` of the
        JSON report: what `certificate --format text` prints."""
        labels = self.matroid.elements
        return {
            "delta": format_packed(_four_delta(self.gap, self.four_p), labels, 4),
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
    weight +-4.  Every other pair (closed, product and rank <= 2) has the
    reduced Delta equal to Delta_M: the gap adds 4 times the packed terms of
    `rayleigh_difference`'s Delta_M, built from a split of its own, and
    certify's split feeds only the identity check.  A Delta_M that is not
    packed over m's labels is an invariant violation.  On every call the
    identity 4*Delta = 4P + (4*Delta - 4P) is then checked in integers
    against the product keys of certify's own basis split, compared as
    sorted multisets (`_check_identity`), which share no kernel with the
    products in the gap: a fault in the weight +-4 accumulation, or in
    `_products` on the other pairs, shows there.  The report keeps only the
    checked packed terms (4P, the gap and the roots), so certify decodes no
    monomial; every `Polynomial` of the report is built from them, or from
    m's bases, when it is read (see `CertificateReport`).

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
    else:
        # Nothing is deleted, so the reduced Delta is Delta_M itself.
        packed = rayleigh_difference(m, e, f)._packed
        if packed is None or packed[1] != m.elements:
            raise RuntimeError(_IDENTITY_VIOLATED)
        get = gap.get
        for key, coeff in packed[0].items():
            gap[key] = get(key, 0) + 4 * coeff
    _check_identity(split, four_p, gap)
    if mode == "reduced-ansatz" and m.is_simple(chain):
        _check_closed_pair_structure(m, ie, jf, gap, four_p, squares)
    return CertificateReport(
        (e, f), mode, m._labels(chain) if chain else (), m, four_p, gap,
        tuple(map(_A_AND_ROOT, squares)),
    )


# ---------------------------------------------------------------------------
# Coefficient tables.


def table_coefficients(shape_family: str) -> TableReport:
    """Verify one coefficient table (GGHH, GGHI or GHIJ): the rows on their
    own instances, then the scan of every closed pair of the small catalog
    (see `tables.table_report`).

    The table code lives in `tables`, imported here on call, so the other
    commands never compile it.
    """
    from .tables import table_report

    return table_report(shape_family)
