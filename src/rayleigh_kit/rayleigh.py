"""Basis generating polynomials and Rayleigh differences.

For a matroid M with weights y, the Rayleigh difference of a pair {e,f}
is

    Delta M{e,f} = M_e^f * M_f^e - M_ef * M^ef

(subscripts contract, superscripts delete).  M is Rayleigh when this is
nonnegative on the positive orthant for every pair; pointwise this is
exactly the negative-correlation inequality M_ef * M <= M_e * M_f.

This module computes these objects exactly, expands Delta as a quadratic
in one variable y_g (the decomposition with central term Theta), and runs
the weight-preserving injection that witnesses Theta >> 0 for dependent
triples {e,f,g} as executable code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .matroid import Matroid
from .poly import Coeff, Polynomial, add_products, dominates, from_packed, pack_mask

__all__ = [
    "PairContext",
    "InjectionRecord",
    "generating_polynomial",
    "minor_polynomial",
    "basis_split",
    "delta_from_split",
    "rayleigh_difference",
    "central_term",
    "decomposition_check",
    "lemma31_injection",
    "theta_dominance_check",
    "closed_pair_filter",
    "negative_correlation_check",
    "SampleResult",
    "Violation",
    "negative_correlation_sample",
]


@lru_cache(maxsize=65536)
def generating_polynomial(m: Matroid) -> Polynomial:
    """Sum of y^B over the bases B; 0 for an empty family, 1 for rank 0."""
    return from_packed(dict.fromkeys(map(pack_mask, m.basis_masks), 1), m.elements)


def minor_polynomial(m: Matroid, contract: Iterable[str], delete: Iterable[str]) -> Polynomial:
    """Generating polynomial of the minor; 0 when `contract` is dependent."""
    return generating_polynomial(m.minor(contract, delete))


class _Pair(NamedTuple):
    matroid: Matroid
    e: str
    f: str


class PairContext(_Pair):
    """A matroid together with a distinguished pair of distinct elements.

    This is the one place where a pair, and a third element `g` next to it,
    is checked against the matroid.
    """

    __slots__ = ()

    def __new__(cls, matroid: Matroid, e: str, f: str) -> PairContext:
        for el in (e, f):
            if el not in matroid.elements:
                raise ValueError(f"element {el!r} not in the ground set")
        if e == f:
            raise ValueError("pair elements must be distinct")
        return super().__new__(cls, matroid, e, f)

    def check_third(self, g: str, *, dependent: bool = False) -> None:
        """Check that g is a ground-set element other than e and f.

        With `dependent`, also require {e,f,g} to be dependent.
        """
        if g not in self.matroid.elements:
            raise ValueError(f"element {g!r} not in the ground set")
        if g in (self.e, self.f):
            raise ValueError(
                f"element {g!r} must differ from e and f (distinct from the pair)"
            )
        if dependent and self.matroid.is_independent((self.e, self.f, g)):
            raise ValueError("precondition: {e,f,g} must be dependent")


def _split(m: Matroid, members: Sequence[int], deleted: int = 0) -> list[list[int]]:
    """The bases of m that miss `deleted`, packed less `members`, by how they
    meet `members`.

    `members` are ground-set positions and `deleted` a bitmask of positions.
    Entry s holds the bases that contain exactly the members whose bit is set
    in s (bit i for members[i]); contracting those members and deleting the
    others leaves exactly these bases, so entry s is that minor's packed
    generating polynomial.  A dependent subset lies in no basis, so its entry
    is empty, as the minor is.  A basis less the members is its memoised
    packed monomial with the members' fields cleared.
    """
    groups: dict[int, list[int]] = {0: []}
    whole = 0
    for x in members:  # pre-key every subset, in the order of s
        bit = 1 << x
        whole |= bit
        for key in list(groups):
            groups[key | bit] = []
    others = ~pack_mask(whole)
    for b, packed in zip(m.basis_masks, m._packed_bases()):
        if not b & deleted:
            groups[b & whole].append(packed & others)
    return list(groups.values())


def basis_split(
    m: Matroid, e: int, f: int, deleted: int = 0
) -> tuple[list[int], ...]:
    """The bases of m less {e,f}, packed, by how they meet {e,f}.

    `e` and `f` are ground-set positions.  Returns (only e, only f, both,
    neither): the packed terms of M_e^f, M_f^e, M_ef and M^ef.  A dependent
    {e,f} lies in no basis, so `both` is then empty, as M_ef is (contracting
    a dependent set leaves no basis).  With `deleted`, a bitmask of positions
    outside {e,f}, only the bases that miss it count: those are the bases of
    ``m.delete`` of that set, kept on m's own positions.
    """
    neither, only_e, only_f, both = _split(m, (e, f), deleted)
    return only_e, only_f, both, neither


def delta_from_split(
    only_e: list[int], only_f: list[int], both: list[int], neither: list[int]
) -> dict[int, int]:
    """M_e^f * M_f^e - M_ef * M^ef from the four lists of `basis_split`, as
    a new dict of packed terms; some may be 0."""
    return add_products(add_products({}, only_e, only_f), both, neither, -1)


def rayleigh_difference(ctx: PairContext) -> Polynomial:
    """Delta M{e,f} = M_e^f * M_f^e - M_ef * M^ef.

    Computed straight from the bases: the pair's labels become positions
    once, `basis_split` groups the packed bases and `delta_from_split`
    multiplies them, each product of two packed bases one integer addition.
    Packed monomials hold a 4-bit exponent per ground-set position, and no
    exponent in the certificate's loops exceeds 4 (here they stay <= 2), so
    4 bits are enough.  The result becomes a `Polynomial` once, with its
    variables in label order.
    """
    m = ctx.matroid
    split = basis_split(m, m._index[ctx.e], m._index[ctx.f])
    return from_packed(delta_from_split(*split), m.elements)


def central_term(ctx: PairContext, g: str) -> Polynomial:
    """The coefficient of y_g in Delta M{e,f} viewed as a quadratic in y_g.

    Theta M{e,f|g} = M_e^fg M_fg^e + M_f^eg M_eg^f
                   - M_g^ef M_ef^g - M_efg M^efg

    Read off the same packed basis split as Delta (`_split` on {e,f,g}): each
    minor is the group of bases meeting {e,f,g} in its contracted set, and
    each product pairs a group with its complement.
    """
    m = ctx.matroid
    ctx.check_third(g)
    # Entry s of the split: bit 1 is e, bit 2 is f, bit 4 is g.
    groups = _split(m, (m._index[ctx.e], m._index[ctx.f], m._index[g]))
    terms = add_products({}, groups[1], groups[6])
    add_products(terms, groups[2], groups[5])
    add_products(terms, groups[4], groups[3], -1)
    add_products(terms, groups[7], groups[0], -1)
    return from_packed(terms, m.elements)


def decomposition_check(ctx: PairContext, g: str) -> bool:
    """Verify Delta M = y_g^2 Delta(M/g) + y_g Theta + Delta(M\\g) exactly."""
    m, e, f = ctx.matroid, ctx.e, ctx.f
    theta = central_term(ctx, g)  # validates g
    delta = rayleigh_difference(ctx)
    contracted = rayleigh_difference(PairContext(m.contract((g,)), e, f))
    deleted = rayleigh_difference(PairContext(m.delete((g,)), e, f))
    y_g = Polynomial.variable(g)
    return delta == y_g * y_g * contracted + y_g * theta + deleted


class InjectionRecord(NamedTuple):
    """One step of the weight-preserving injection behind Theta >> 0.

    b1 is a basis containing g but neither e nor f; b2 a basis containing
    e and f but not g.  The output pair (a1, a2) swaps one of e/f into b1
    (replacing g) and g into b2, according to `branch`, and preserves the
    multiset union of the two bases.
    """

    b1: frozenset[str]
    b2: frozenset[str]
    a1: frozenset[str]
    a2: frozenset[str]
    branch: str  # "e∉L" or "f∉L"


def lemma31_injection(ctx: PairContext, g: str) -> list[InjectionRecord]:
    """Run the injection on all of M_g^ef x M_ef^g, with full bases.

    Requires {e,f,g} dependent.  For each pair (B1, B2) of bases with
    g in B1, e,f notin B1 and e,f in B2, g notin B2, let L be the closure
    of B1 - g.  At most one of e, f lies in L (otherwise g would too),
    and swapping the absent one produces two new bases

        branch e∉L:  A1 = B1 - g + e,  A2 = B2 - e + g
        branch f∉L:  A1 = B1 - g + f,  A2 = B2 - f + g

    with A1 ⊎ A2 = B1 ⊎ B2 as multisets.  The map is injective because the
    branch is readable off A1 and each branch is reversible.

    The swapped pair is a pair of bases whenever the matroid is simple
    (and more generally unless g is parallel to e or f); if a swap ever
    leaves the basis family, RuntimeError is raised rather than silently
    recording a bad pair.
    """
    m, e, f = ctx.matroid, ctx.e, ctx.f
    ctx.check_third(g, dependent=True)

    bases = m.bases
    domain1 = sorted(
        (b for b in bases if g in b and e not in b and f not in b), key=sorted
    )
    domain2 = sorted(
        (b for b in bases if e in b and f in b and g not in b), key=sorted
    )
    records = []
    seen_outputs = set()
    for b1 in domain1:
        l_flat = m.closure(b1 - {g})
        if e not in l_flat:
            moved, branch = e, "e∉L"
        elif f not in l_flat:
            moved, branch = f, "f∉L"
        else:
            # e, f in L would force g into L = closure(B1 - g), impossible.
            raise RuntimeError("both e and f in the closure of B1 - g")
        a1 = b1 - {g} | {moved}
        for b2 in domain2:
            a2 = b2 - {moved} | {g}
            if a1 not in bases or a2 not in bases:
                raise RuntimeError(
                    "injection produced a non-basis (g parallel to e or f?): "
                    f"B1={sorted(b1)} B2={sorted(b2)} -> "
                    f"A1={sorted(a1)} A2={sorted(a2)}"
                )
            out = (a1, a2)
            if out in seen_outputs:
                raise RuntimeError("injection collision")
            seen_outputs.add(out)
            records.append(InjectionRecord(b1, b2, a1, a2, branch))
    return records


def theta_dominance_check(ctx: PairContext, g: str) -> bool:
    """True iff the central term has no negative coefficient.

    Guaranteed whenever {e,f,g} is dependent (that is the content of the
    injection); this is the test harness for that claim.
    """
    ctx.check_third(g, dependent=True)
    return dominates(central_term(ctx, g), Polynomial.zero())


def closed_pair_filter(m: Matroid, e: str, f: str) -> bool:
    """True iff {e,f} is closed: nothing else lies in its closure."""
    pair = m._mask((e, f))
    return m.closure_mask(pair) == pair


def negative_correlation_check(
    m: Matroid, e: str, f: str, point: Mapping[str, Coeff]
) -> bool:
    """Exact pointwise check of M_ef * M <= M_f * M_e at positive weights.

    Cross-multiplied so no division happens.  Raises on a pair that
    `PairContext` rejects, on nonpositive weights and on degenerate pairs
    (M_e or M vanishing at the point).
    """
    PairContext(m, e, f)
    for el in m.elements:
        w = point.get(el)
        if w is None:
            raise ValueError(f"missing weight for element {el!r}")
        if w <= 0:
            raise ValueError(f"weight for element {el!r} must be positive")
    m_e = minor_polynomial(m, (e,), ()).evaluate(point)
    m_all = generating_polynomial(m).evaluate(point)
    if m_e == 0 or m_all == 0:
        raise ValueError(f"degenerate weights for pair ({e!r}, {f!r})")
    m_f = minor_polynomial(m, (f,), ()).evaluate(point)
    m_ef = minor_polynomial(m, (e, f), ()).evaluate(point)
    return m_ef * m_all <= m_f * m_e


# ---------------------------------------------------------------------------
# Randomized sampling with exact dyadic weights.
#
# Weights are drawn log-uniformly from [2^-9, 2^9) ⊂ [1e-3, 1e3] as dyadic
# rationals m * 2^(k-19) with a 20-bit mantissa.  Scaling every weight by
# 2^28 turns them into integers without changing any of the homogeneous
# comparisons below, so the sampler works in exact integer arithmetic.

_MANTISSA_BITS = 19
_EXP_LOW, _EXP_HIGH = -9, 9  # exponent k drawn from [_EXP_LOW, _EXP_HIGH)
_SCALE_SHIFT = _MANTISSA_BITS - _EXP_LOW  # weight * 2^_SCALE_SHIFT is integral
_CROSS_CHECK_EVERY = 100  # samples between two exact re-checks of one pair


def _draw_scaled_weight(rng: random.Random) -> int:
    """One dyadic weight, pre-scaled by 2^_SCALE_SHIFT (an integer)."""
    k = rng.randrange(_EXP_LOW, _EXP_HIGH)
    mantissa = (1 << _MANTISSA_BITS) | rng.getrandbits(_MANTISSA_BITS)
    return mantissa << (k - _EXP_LOW)


class Violation(NamedTuple):
    pair: tuple[str, str]
    sample_index: int
    point: dict[str, Fraction]


class SampleResult(NamedTuple):
    pairs: tuple[tuple[str, str], ...]
    samples: int
    checks: int
    violations: tuple[Violation, ...]
    cross_checks: int


def negative_correlation_sample(
    m: Matroid,
    pairs: Optional[Sequence[tuple[str, str]]] = None,
    samples: int = 1000,
    seed: int = 0,
) -> SampleResult:
    """Check negative correlation at `samples` seeded random weight vectors.

    For each sampled point the inequality is evaluated for every requested
    pair (default: all unordered pairs) by exact integer arithmetic on the
    scaled basis weights: with T_x the sum of basis weights over bases
    whose intersection with {e,f} is x,

        M_e M_f - M_ef M  =  T_e T_f - T_ef T_0   (at the point),

    which is also the value of Delta M{e,f} there.  Each pair's bases are
    split once, before sampling, into the index groups behind T_e, T_f,
    T_ef and T_0; a sample then weighs each basis once and sums the groups.
    Every `_CROSS_CHECK_EVERY`-th sample one pair is re-verified through the
    polynomial-evaluation path as an independent guard.
    """
    if pairs is None:
        pairs = list(combinations(m.elements, 2))
    else:
        pairs = [tuple(p) for p in pairs]
        for e, f in pairs:
            PairContext(m, e, f)
    if not pairs:
        return SampleResult((), samples, 0, (), 0)
    rng = random.Random(seed)
    index = m._index
    masks = m.basis_masks
    nelems = len(m.elements)
    supports = [[i for i in range(nelems) if b >> i & 1] for b in masks]
    splits = []  # per pair: indices of bases with only e, only f, both, neither
    for e, f in pairs:
        ebit, fbit = 1 << index[e], 1 << index[f]
        groups: dict[int, list[int]] = {ebit: [], fbit: [], ebit | fbit: [], 0: []}
        for i, b in enumerate(masks):
            groups[b & (ebit | fbit)].append(i)
        splits.append(tuple(groups.values()))

    violations = []
    cross_checks = 0
    checks = 0
    for s in range(samples):
        scaled = [_draw_scaled_weight(rng) for _ in range(nelems)]
        weights = [prod([scaled[i] for i in support]) for support in supports]
        weight = weights.__getitem__

        point = None
        for p_idx, ((e, f), split) in enumerate(zip(pairs, splits)):
            only_e, only_f, both, neither = split
            ok = (sum(map(weight, only_e)) * sum(map(weight, only_f))
                  >= sum(map(weight, both)) * sum(map(weight, neither)))
            checks += 1
            cross_check = (
                s % _CROSS_CHECK_EVERY == 0
                and p_idx == (s // _CROSS_CHECK_EVERY) % len(pairs)
            )
            if point is None and (cross_check or not ok):
                point = {
                    el: Fraction(scaled[i], 1 << _SCALE_SHIFT)
                    for el, i in index.items()
                }
            if not ok:
                violations.append(Violation((e, f), s, dict(point)))
            if cross_check:
                try:
                    exact = negative_correlation_check(m, e, f, point)
                except ValueError:
                    exact = ok  # degenerate pair (loop): trivially equal sides
                if exact != ok:
                    raise RuntimeError(
                        f"sampler disagrees with exact evaluation at pair ({e}, {f})"
                    )
                cross_checks += 1
    return SampleResult(tuple(pairs), samples, checks, tuple(violations), cross_checks)
