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
from .poly import Coeff, Polynomial, add_products, from_packed, pack_mask


@lru_cache(maxsize=65536)
def generating_polynomial(m: Matroid) -> Polynomial:
    """Sum of y^B over the bases B; 0 for an empty family, 1 for rank 0."""
    return from_packed(dict.fromkeys(m._packed_bases(), 1), m.elements)


def minor_polynomial(m: Matroid, contract: Iterable[str], delete: Iterable[str]) -> Polynomial:
    """Generating polynomial of the minor; 0 when `contract` is dependent."""
    return generating_polynomial(m.minor(contract, delete))


def _pair_positions(m: Matroid, e: str, f: str) -> tuple[int, int]:
    """The ground-set positions of e and f, checked to be a pair of m.

    This is the one place where a pair is checked against a matroid: every
    public pair question takes labels and turns them into positions here.
    """
    index = m._index
    for el in (e, f):
        if el not in index:
            raise ValueError(f"element {el!r} not in the ground set")
    if e == f:
        raise ValueError("pair elements must be distinct")
    return index[e], index[f]


def _triple_positions(m: Matroid, e: str, f: str, g: str) -> tuple[int, int, int]:
    """The positions of the pair e, f and of a third element g of m."""
    ie, jf = _pair_positions(m, e, f)
    if g not in m._index:
        raise ValueError(f"element {g!r} not in the ground set")
    if g in (e, f):
        raise ValueError(
            f"element {g!r} must differ from e and f (distinct from the pair)"
        )
    return ie, jf, m._index[g]


def _split(m: Matroid, members: Sequence[int], deleted: int = 0) -> list[list[int]]:
    """The bases of m that miss `deleted`, packed less `members`, by how they
    meet `members`.

    `members` are ground-set positions and `deleted` a bitmask of positions
    outside them.  Entry s holds the bases that meet the members in exactly
    subset s (bit i of s for members[i]); contracting those members and
    deleting the others leaves exactly these bases, so entry s is that
    minor's packed generating polynomial: for members (e, f), entries 1, 2, 3
    and 0 are M_e^f, M_f^e, M_ef and M^ef.  A dependent subset lies in no
    basis, so its entry is empty, as the minor is.  With `deleted`, the bases
    are those of ``m.delete`` of that set, kept on m's own positions.  A
    basis less the members is its memoised packed monomial with the members'
    fields cleared.
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


# The signed products of Delta (a split on e, f) and of Theta (a split on
# e, f, g), as (s, t, sign) over the entries: sign * (entry s) * (entry t).
_DELTA = ((1, 2, 1), (3, 0, -1))
_THETA = ((1, 6, 1), (2, 5, 1), (4, 3, -1), (7, 0, -1))


def _products(
    groups: list[list[int]], formula: Sequence[tuple[int, int, int]]
) -> dict[int, int]:
    """The sum of `formula`'s signed products over a split, as a new dict
    of packed terms; some may be 0."""
    terms: dict[int, int] = {}
    for s, t, sign in formula:
        add_products(terms, groups[s], groups[t], sign)
    return terms


def _product_keys(
    groups: list[list[int]], formula: Sequence[tuple[int, int, int]]
) -> tuple[list[int], list[int]]:
    """The keys of `formula`'s products over a split, one per pair of packed
    terms, as (the positive products, the negative ones): the sum of the
    first list less the sum of the second is `_products`'s result.  Listed
    without `add_products`, so a check against them does not share its
    kernel."""
    sides: tuple[list[int], list[int]] = ([], [])
    for s, t, sign in formula:
        sides[sign < 0].extend([x + y for x in groups[s] for y in groups[t]])
    return sides


def rayleigh_difference(m: Matroid, e: str, f: str) -> Polynomial:
    """Delta M{e,f} = M_e^f * M_f^e - M_ef * M^ef.

    Computed straight from the bases: `_split` groups the packed bases by
    how they meet {e,f} and `_products` multiplies the groups as `_DELTA`
    says, each product of two packed bases one integer addition (exponents
    here stay <= 2, well inside a 3-bit field).  The result becomes a
    `Polynomial` once, with its variables in label order.
    """
    split = _split(m, _pair_positions(m, e, f))
    return from_packed(_products(split, _DELTA), m.elements)


def central_term(m: Matroid, e: str, f: str, g: str) -> Polynomial:
    """The coefficient of y_g in Delta M{e,f} viewed as a quadratic in y_g.

    Theta M{e,f|g} = M_e^fg M_fg^e + M_f^eg M_eg^f
                   - M_g^ef M_ef^g - M_efg M^efg

    Read off the split on {e,f,g} as the `_THETA` table says: each minor is
    the group of bases meeting {e,f,g} in its contracted set, and each
    product pairs a group with its complement.
    """
    split = _split(m, _triple_positions(m, e, f, g))
    return from_packed(_products(split, _THETA), m.elements)


def decomposition_check(m: Matroid, e: str, f: str, g: str) -> bool:
    """Verify Delta M = y_g^2 Delta(M/g) + y_g Theta + Delta(M\\g) exactly."""
    theta = central_term(m, e, f, g)  # validates the pair and g
    delta = rayleigh_difference(m, e, f)
    contracted = rayleigh_difference(m.contract((g,)), e, f)
    deleted = rayleigh_difference(m.delete((g,)), e, f)
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


def lemma31_injection(m: Matroid, e: str, f: str, g: str) -> list[InjectionRecord]:
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
    _triple_positions(m, e, f, g)
    if m.is_independent((e, f, g)):
        raise ValueError("precondition: {e,f,g} must be dependent")

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


def theta_dominance_check(m: Matroid, e: str, f: str, g: str) -> bool:
    """True iff the central term has no negative coefficient.

    Guaranteed whenever {e,f,g} is dependent (that is the content of the
    injection); this is the test harness for that claim.
    """
    positions = _triple_positions(m, e, f, g)
    if m.is_independent((e, f, g)):
        raise ValueError("precondition: {e,f,g} must be dependent")
    return min(_products(_split(m, positions), _THETA).values(), default=0) >= 0


def closed_pair_filter(m: Matroid, e: str, f: str) -> bool:
    """True iff {e,f} is closed: nothing else lies in its closure."""
    ie, jf = _pair_positions(m, e, f)
    pair = 1 << ie | 1 << jf
    return m.closure_mask(pair) == pair


def negative_correlation_check(
    m: Matroid, e: str, f: str, point: Mapping[str, Coeff]
) -> bool:
    """Exact pointwise check of M_ef * M <= M_f * M_e at positive weights.

    Cross-multiplied so no division happens.  Raises on an element outside
    m's ground set, on e == f, on a weight that is not an `int` or a
    `Fraction` (floats compare inexactly, NaN passes no comparison, and a
    `bool` is no weight), on nonpositive weights and on degenerate pairs
    (M_e or M vanishing at the point).
    """
    _pair_positions(m, e, f)
    for el in m.elements:
        w = point.get(el)
        if w is None:
            raise ValueError(f"missing weight for element {el!r}")
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise ValueError(f"weight for element {el!r} must be an int or a Fraction")
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

    For each sampled point the inequality M_ef * M <= M_e * M_f is evaluated
    for every requested pair (default: all unordered pairs) by exact integer
    arithmetic on the scaled basis weights: M_x is the sum of the weights of
    the bases holding every element of x, and M the sum of all of them.
    Before sampling, the indices of the bases holding each needed bitmask
    ({e}, {f} and {e,f}) are listed once, so pairs sharing an element share
    its list; a sample then weighs each basis once and sums each list once.
    Every `_CROSS_CHECK_EVERY`-th sample one pair is re-verified through the
    polynomial-evaluation path as an independent guard.  A negative
    `samples` raises ValueError; 0 checks nothing.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if pairs is None:
        pairs = list(combinations(m.elements, 2))
    else:
        pairs = [tuple(p) for p in pairs]
    positions = [_pair_positions(m, e, f) for e, f in pairs]
    if not pairs:
        return SampleResult((), samples, 0, (), 0)
    rng = random.Random(seed)
    masks = m.basis_masks
    nelems = len(m.elements)
    supports = [[i for i in range(nelems) if b >> i & 1] for b in masks]
    holders: dict[int, list[int]] = {}  # bitmask -> indices of the bases holding it
    keys = []  # per pair: the bitmasks of {e}, {f} and {e,f}
    for ie, jf in positions:
        trio = (1 << ie, 1 << jf, 1 << ie | 1 << jf)
        for x in trio:
            if x not in holders:
                holders[x] = [i for i, b in enumerate(masks) if b & x == x]
        keys.append(trio)

    violations = []
    cross_checks = 0
    for s in range(samples):
        scaled = [_draw_scaled_weight(rng) for _ in range(nelems)]
        weights = [prod([scaled[i] for i in support]) for support in supports]
        total = sum(weights)
        held = {x: sum(map(weights.__getitem__, idx)) for x, idx in holders.items()}

        oks = [held[xef] * total <= held[xe] * held[xf] for xe, xf, xef in keys]
        cross_check = s % _CROSS_CHECK_EVERY == 0
        if cross_check or not all(oks):
            point = {
                el: Fraction(w, 1 << _SCALE_SHIFT) for el, w in zip(m.elements, scaled)
            }
            violations.extend(
                Violation(pair, s, dict(point)) for pair, ok in zip(pairs, oks) if not ok
            )
        if cross_check:
            c = (s // _CROSS_CHECK_EVERY) % len(pairs)
            e, f = pairs[c]
            try:
                exact = negative_correlation_check(m, e, f, point)
            except ValueError:
                exact = oks[c]  # degenerate pair (loop): trivially equal sides
            if exact != oks[c]:
                raise RuntimeError(
                    f"sampler disagrees with exact evaluation at pair ({e}, {f})"
                )
            cross_checks += 1
    checks = len(pairs) * samples
    return SampleResult(tuple(pairs), samples, checks, tuple(violations), cross_checks)
