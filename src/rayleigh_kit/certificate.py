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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .catalog import enumerate_simple_rank3, named
from .matroid import Matroid, canonical_form, line_masks
from .poly import (
    GGHH,
    GGHI,
    GHIJ,
    PACKED_BITS,
    MonomialShape,
    Polynomial,
    add_products,
    add_square,
    dominates,
    format_polynomial,
    from_packed,
    is_packed_shape,
    pack_mask,
    pack_shape,
    packed_variables,
)
from .rayleigh import (
    PairContext,
    basis_split,
    closed_pair_filter,
    delta_terms,
    rayleigh_difference,
)

REPORT_SCHEMA = "rayleigh-kit/1"


# ---------------------------------------------------------------------------
# The Ansatz.


@dataclass(frozen=True)
class AnsatzParts:
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


def _square(m: Matroid, e: int, f: int, a: int) -> _Square:
    """The square for the element at position a, with e, f positions too."""
    ae, af = 1 << a | 1 << e, 1 << a | 1 << f
    cl_ae, cl_af = m.closure_mask(ae), m.closure_mask(af)
    l_ae, l_af = cl_ae & ~ae, cl_af & ~af
    u = ((1 << m.n) - 1) & ~(cl_ae | cl_af)
    y_a = pack_mask(1 << a)
    root = {y_a + y: 1 for y in packed_variables(u)}
    add_products(root, packed_variables(l_ae), packed_variables(l_af), -1)
    return _Square(a, l_ae, l_af, u, root)


def _squares(m: Matroid, e: str, f: str) -> list[_Square]:
    """The squares for every a outside {e,f}, in ground-set order."""
    ie, jf = m.elements.index(e), m.elements.index(f)
    return [_square(m, ie, jf, a) for a in range(m.n) if a not in (ie, jf)]


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
    index = m.elements.index
    square = _square(m, index(e), index(f), index(a))
    l_ae, l_af, u_a = (m._unmask(mask) for mask in square[1:4])
    return AnsatzParts(
        a, l_ae, l_af, u_a,
        Polynomial.sum_of_variables(u_a),
        Polynomial.sum_of_variables(l_ae),
        Polynomial.sum_of_variables(l_af),
        from_packed(add_square({}, square.root), m.elements),
    )


def ansatz_polynomial(m: Matroid, e: str, f: str) -> Polynomial:
    """P = 1/4 * sum of T_a over all a outside {e,f}; a sum of squares."""
    _require_rank3(m)
    PairContext(m, e, f)
    return from_packed(_four_p_terms(_squares(m, e, f)), m.elements) * Fraction(1, 4)


def _gap(delta: dict[int, int], four_p: dict[int, int]) -> dict[int, int]:
    """4*Delta - 4P as packed terms: Delta >> P iff none is negative."""
    gap = {key: 4 * coeff for key, coeff in delta.items()}
    for key, coeff in four_p.items():
        gap[key] = gap.get(key, 0) - coeff
    return gap


def _check_closed_pair_structure(
    m: Matroid, e: str, f: str, delta: dict[int, int], four_p: dict[int, int],
    squares: list[_Square],
) -> None:
    """Structural facts that hold when m is simple and {e,f} is closed.

    Every monomial of Delta and of 4P (packed terms) is degree-4 in
    variables outside {e,f} with exponents <= 2, and each square's index
    sets partition cleanly.  Violations indicate a bug, hence RuntimeError.
    """
    ie, jf = m.elements.index(e), m.elements.index(f)
    pair = pack_mask(1 << ie | 1 << jf) * ((1 << PACKED_BITS) - 1)  # e and f fields
    for label, terms in (("delta", delta), ("ansatz", four_p)):
        for key, coeff in terms.items():
            if not coeff:
                continue
            if not is_packed_shape(key):
                mono = next(from_packed({key: 1}, m.elements).terms())[0]
                raise RuntimeError(
                    f"internal invariant violated: {label} monomial {mono} "
                    "is not of shape y_g^2y_h^2, y_g^2y_hy_i or y_gy_hy_iy_j"
                )
            if key & pair:
                raise RuntimeError(
                    f"internal invariant violated: {label} mentions e or f"
                )
    for square in squares:
        groups = (square.l_ae, square.l_af, square.u)
        banned = 1 << square.a | 1 << ie | 1 << jf
        if any(grp & banned for grp in groups):
            raise RuntimeError(
                "internal invariant violated: index sets must exclude a, e, f"
            )
        for g1, g2 in itertools.combinations(groups, 2):
            if g1 & g2:
                raise RuntimeError(
                    "internal invariant violated: L(a,e), L(a,f), U(a) overlap"
                )


# ---------------------------------------------------------------------------
# Reduction to a closed pair.


class ReductionResult(NamedTuple):
    matroid: Matroid
    chain: tuple[str, ...]
    pair_dependent: bool


def lemma33_reduce(m: Matroid, e: str, f: str) -> ReductionResult:
    """Delete third elements from the closure of {e,f} until the pair is closed.

    Each deleted g satisfies rank({e,f,g}) = 2, and the deletion can only
    shrink the Rayleigh difference coefficientwise, so certifying the reduced
    matroid certifies the original.  Deletion restricts the rank function, so
    cl_{M\\X}({e,f}) = cl_M({e,f}) - X: the whole chain is read off one
    closure and deleted at once, in ground-set order.  A dependent (parallel)
    pair is returned unchanged with `pair_dependent` set; the caller should
    use the product form of the difference instead.
    """
    _require_rank3(m)
    PairContext(m, e, f)
    if m.is_dependent((e, f)):
        return ReductionResult(m, (), True)
    extra = m.closure((e, f)) - {e, f}
    chain = tuple(el for el in m.elements if el in extra)
    return ReductionResult(m.delete(chain) if chain else m, chain, False)


# ---------------------------------------------------------------------------
# Certification.


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of certifying one pair.

    `delta`, `P` and `residual` refer to the certified (reduced) matroid;
    `delta = P + residual` exactly, and `verdict` holds iff every residual
    coefficient is nonnegative.  `delta_original` is the difference on the
    input matroid before reduction, and `unreduced_dominance` reports whether
    the dominance already held there (None outside the reduced-ansatz mode).
    """

    pair: tuple[str, str]
    mode: str  # "rank-le-2" | "product" | "reduced-ansatz"
    reduced_pair_closed: bool
    reduction_chain: tuple[str, ...]
    P: Polynomial
    delta: Polynomial
    residual: Polynomial
    verdict: bool
    square_terms: tuple[tuple[str, Polynomial], ...]
    delta_original: Polynomial
    unreduced_dominance: Optional[bool]

    def __post_init__(self):
        if self.delta != self.P + self.residual:
            raise RuntimeError("internal invariant violated: delta != P + residual")

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "certificate",
            "pair": list(self.pair),
            "mode": self.mode,
            "reduced_pair_closed": self.reduced_pair_closed,
            "reduction_chain": list(self.reduction_chain),
            "delta": format_polynomial(self.delta),
            "ansatz": format_polynomial(self.P),
            "residual": format_polynomial(self.residual),
            "residual_terms": len(self.residual),
            "verdict": self.verdict,
            "squares": [
                [a, format_polynomial(root)] for a, root in self.square_terms
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

    Delta and 4P are built as packed terms: a monomial is one int with a
    4-bit exponent per ground-set position (`poly.pack_mask`), so a product
    of monomials is an integer addition.  Delta multiplies two bases
    (exponents <= 2) and 4P squares roots with exponents <= 2, so no
    exponent exceeds 4 and a 4-bit field is enough.  The packed terms become
    `Polynomial`s, variables in label order, only for the report.

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
    delta_orig = rayleigh_difference(ctx)
    pair_dependent = False
    if m.rank == 3:
        reduced, chain, pair_dependent = lemma33_reduce(m, e, f)
    if m.rank <= 2 or pair_dependent:
        # Rank <= 2: Delta itself is >> 0.  Dependent pair: no basis contains
        # both e and f, so Delta = M_e^f * M_f^e >> 0.  Either way P = 0.
        return CertificateReport(
            pair=(e, f),
            mode="product" if pair_dependent else "rank-le-2",
            reduced_pair_closed=not pair_dependent and closed_pair_filter(m, e, f),
            reduction_chain=(),
            P=Polynomial.zero(),
            delta=delta_orig,
            residual=delta_orig,
            verdict=dominates(delta_orig, Polynomial.zero()),
            square_terms=(),
            delta_original=delta_orig,
            unreduced_dominance=None,
        )
    squares = _squares(reduced, e, f)
    four_p_terms = _four_p_terms(squares)
    p_poly = from_packed(four_p_terms, reduced.elements) * Fraction(1, 4)
    # The report's Delta comes from `rayleigh_difference` below; this packed
    # copy feeds the integer checks.
    red_terms = delta_terms(reduced, e, f)
    gap = _gap(red_terms, four_p_terms)
    verdict = all(coeff >= 0 for coeff in gap.values())
    if reduced.is_simple():
        _check_closed_pair_structure(reduced, e, f, red_terms, four_p_terms, squares)
    if chain:
        unreduced_gap = _gap(delta_terms(m, e, f), _four_p_terms(_squares(m, e, f)))
        unreduced = all(coeff >= 0 for coeff in unreduced_gap.values())
    else:
        unreduced = verdict
    return CertificateReport(
        pair=(e, f),
        mode="reduced-ansatz",
        reduced_pair_closed=True,
        reduction_chain=chain,
        P=p_poly,
        delta=rayleigh_difference(PairContext(reduced, e, f)),
        residual=from_packed(
            {key: coeff >> 2 if coeff & 3 == 0 else Fraction(coeff, 4)
             for key, coeff in gap.items()},
            reduced.elements,
        ),
        verdict=verdict,
        square_terms=tuple(
            (reduced.elements[square.a], from_packed(square.root, reduced.elements))
            for square in squares
        ),
        delta_original=delta_orig,
        unreduced_dominance=unreduced,
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
    monomial_vars: tuple[str, ...]
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
    return canonical_form(masks, n, cells)[0]


def _pair_terms(m: Matroid, e: str, f: str) -> tuple[dict[int, int], ...]:
    """(M_e^f * M_f^e, M_{ef} * M^{ef}, 4P) as packed terms."""
    only_e, only_f, both, neither = basis_split(m, e, f)
    return (
        add_products({}, only_e, only_f),
        add_products({}, both, neither),
        _four_p_terms(_squares(m, e, f)),
    )


def _shape_supports(others: list[int], family: str):
    """All supports of the family's shape over these positions, in a fixed
    order, each listed as in `MonomialShape.support`."""
    if family == GGHH:
        yield from itertools.combinations(others, 2)
    elif family == GGHI:
        for g in others:
            for h, i in itertools.combinations([x for x in others if x != g], 2):
                yield (g, h, i)
    else:
        yield from itertools.combinations(others, 4)


def _scan_matroids() -> list[tuple[str, Matroid]]:
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
    if shape_family not in _TABLE_ROWS:
        raise ValueError(f"unknown shape family {shape_family!r}")
    rows = _TABLE_ROWS[shape_family]

    checks = []
    rows_by_key: dict[tuple, TableRow] = {}
    for row in rows:
        inst = named(row.instance)
        index = inst.elements.index
        others = [x for x in inst.elements if x not in row.pair]
        if row.g is not None:
            support = (row.g,) + tuple(x for x in others if x != row.g)
        else:
            support = tuple(others)
        positions = tuple(map(index, support))
        positive, negative, four_p = _pair_terms(inst, *row.pair)
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
            RowCheck(row, support, cpos, cneg, cpos - cneg, pval, ok)
        )
        e, f = map(index, row.pair)
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
            if any(line >> ie & line >> jf & 1 for line in lines):
                continue  # {e,f} is not closed: it spans a line
            e, f = m.elements[ie], m.elements[jf]
            positive, negative, four_p = _pair_terms(m, e, f)
            others = [i for i in range(m.n) if i not in (ie, jf)]
            for support in _shape_supports(others, shape_family):
                occurrences += 1
                labels = tuple(m.elements[i] for i in support)
                mono = MonomialShape(shape_family, labels).monomial()
                where = f"{mname} pair {{{e},{f}}} monomial {dict(mono)}"
                row = rows_by_key.get(
                    _pinned_key(lines, m.n, ie, jf, support, shape_family)
                )
                if row is None:
                    unmatched.append(where)
                    continue
                usage[row.label] += 1
                key = pack_shape(shape_family, support)
                cpos, cneg = positive.get(key, 0), negative.get(key, 0)
                pval = Fraction(four_p.get(key, 0), 4)
                observed[row.label].add(pval)
                if (cpos, cneg) != (row.positive, row.negative):
                    mismatches.append(
                        f"{where}: expected {row.label} "
                        f"{row.positive}-{row.negative}, got {cpos}-{cneg}"
                    )
                if pval not in row.p_allowed:
                    mismatches.append(
                        f"{where}: ansatz coefficient {pval} not in "
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
