"""Matroids represented by their basis families.

The ground set is a tuple of string labels; internally each basis is a
bitmask over the element positions, which keeps rank/closure/minor
computations cheap for the small instances this package targets
(|E| <= 64).  All values are immutable; operations return new matroids.

Two minor conventions live side by side here, deliberately:

* ``minor`` (contraction/deletion) declares the result EMPTY (no bases at
  all, generating polynomial 0) whenever the contracted set is dependent.
* ``restriction`` re-ranks: its bases are the maximal independent subsets
  of the kept set, whatever their size.

The first convention is what makes the Rayleigh-difference algebra work.
The second, the textbook restriction, has no caller in the package: the
table scan cuts line masks instead, and tests keep it as that cut's reference.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, islice, repeat
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import _reserved_in


def _check_element_id(el) -> str:
    if not isinstance(el, str) or not el:
        raise ValueError(f"element id must be a nonempty string, got {el!r}")
    if _reserved_in(el):
        raise ValueError(f"element id {el!r} contains a reserved character")
    return el


class Matroid:
    """A matroid given by ground set, rank, and basis family."""

    __slots__ = (
        "elements", "rank", "_masks", "_index", "_flats", "_pairs_filled",
        "_share_masks", "_witnesses", "_packed",
    )

    def __init__(self, elements: Iterable[str], rank: int, basis_masks: Iterable[int]):
        elements = tuple(_check_element_id(e) for e in elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element ids")
        if len(elements) > 64:
            raise ValueError("at most 64 elements supported")
        rank = int(rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        masks = tuple(sorted(set(int(b) for b in basis_masks)))
        full = (1 << len(elements)) - 1
        for b in masks:
            if b & ~full:
                raise ValueError("basis mask outside ground set")
            if b.bit_count() != rank:
                raise ValueError("basis size differs from rank")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elements)})
        object.__setattr__(self, "_flats", {})
        object.__setattr__(self, "_pairs_filled", False)
        object.__setattr__(self, "_share_masks", None)
        object.__setattr__(self, "_witnesses", None)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matroid is immutable")

    def __reduce__(self):
        # Rebuilt from its bases; the memoised flats, tables and simplicity
        # witnesses start empty.
        return Matroid, (self.elements, self.rank, self._masks)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_bases(
        cls,
        elements: Iterable[str],
        bases: Iterable[Iterable[str]],
        rank: Optional[int] = None,
    ) -> "Matroid":
        """Build from explicit basis subsets; rank is inferred when omitted."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        masks = []
        for basis in bases:
            mask = 0
            for el in basis:
                if el not in index:
                    raise ValueError(f"basis element {el!r} not in the ground set")
                bit = 1 << index[el]
                if mask & bit:
                    raise ValueError(f"repeated element {el!r} in a basis")
                mask |= bit
            masks.append(mask)
        if rank is None:
            if not masks:
                raise ValueError("rank required for an empty basis family")
            rank = masks[0].bit_count()
        return cls(elements, rank, masks)

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def basis_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def bases(self) -> frozenset[frozenset[str]]:
        """The bases as label sets, built on each read."""
        return frozenset(map(self._unmask, self._masks))

    def _mask(self, subset: Iterable[str]) -> int:
        mask = 0
        for el in subset:
            try:
                mask |= 1 << self._index[el]
            except KeyError:
                raise ValueError(f"element {el!r} not in the ground set") from None
        return mask

    def _labels(self, mask: int) -> tuple[str, ...]:
        """The elements of a bitmask over the positions, in ground-set order:
        one step per set bit, lowest first, whatever the ground set's size."""
        elements = self.elements
        labels = []
        while mask:
            low = mask & -mask
            labels.append(elements[low.bit_length() - 1])
            mask ^= low
        return tuple(labels)

    def _unmask(self, mask: int) -> frozenset[str]:
        return frozenset(self._labels(mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.rank == other.rank
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.rank, self._masks))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self._masks)})"

    # -- rank, closure, dependence ------------------------------------------

    def rank_of(self, subset: Iterable[str]) -> int:
        """Rank of a subset: the size of its largest independent subset.

        Every independent set extends to a basis, so this is simply the
        maximum of |subset ∩ B| over bases B.
        """
        return self._rank_of_mask(self._mask(subset))

    def _rank_of_mask(self, mask: int) -> int:
        if not self._masks:
            return 0
        return max((mask & b).bit_count() for b in self._masks)

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        return self._unmask(self.closure_mask(self._mask(subset)))

    def closure_mask(self, mask: int) -> int:
        """Closure of a bitmask over the element positions, memoised per matroid.

        With r = rank(X), an element x outside X lies outside cl(X) exactly
        when some basis B meets X in r elements and contains x (extend a
        maximal independent subset of X + x to a basis).  So cl(X) is
        everything not in B - X for such a B: one pass over the bases.

        On a rank-3 matroid the first query of a 2-element mask fills the
        flat of every pair that some basis holds, in one pass over the bases
        (`_fill_pair_flats`); other masks, and pairs that no basis holds,
        take the pass above.
        """
        flat = self._flats.get(mask)
        if flat is None:
            if self.rank == 3 and mask.bit_count() == 2 and not self._pairs_filled:
                self._fill_pair_flats()
                return self.closure_mask(mask)
            r = self._rank_of_mask(mask)
            spanned = 0
            for b in self._masks:
                if (b & mask).bit_count() == r:
                    spanned |= b
            flat = ((1 << len(self.elements)) - 1) & ~(spanned & ~mask)
            self._flats[mask] = flat
        return flat

    def _fill_pair_flats(self) -> None:
        """Memoise the closure of every pair held by a basis of this rank-3
        matroid.  Such a pair has rank 2, and the bases meeting it in 2
        elements are those holding it, so its flat is everything outside the
        third elements of those bases: each basis ORs its third element into
        the span of each of its 3 pairs."""
        spans: dict[int, int] = {}
        get = spans.get
        for b in self._masks:
            low = b & -b
            mid = (b ^ low) & -(b ^ low)
            high = b ^ low ^ mid
            spans[b ^ high] = get(b ^ high, 0) | high
            spans[b ^ mid] = get(b ^ mid, 0) | mid
            spans[b ^ low] = get(b ^ low, 0) | low
        full = (1 << len(self.elements)) - 1
        flats = self._flats
        for pair, span in spans.items():
            flats[pair] = full & ~span
        object.__setattr__(self, "_pairs_filled", True)

    def is_dependent(self, subset: Iterable[str]) -> bool:
        mask = self._mask(subset)
        return self._rank_of_mask(mask) < mask.bit_count()

    def is_independent(self, subset: Iterable[str]) -> bool:
        return not self.is_dependent(subset)

    def loops(self) -> tuple[str, ...]:
        """Elements contained in no basis, in ground-set order: a loop shares
        a basis with nothing."""
        return tuple(e for e, s in zip(self.elements, self._shares()) if not s)

    # -- minors ---------------------------------------------------------------

    def minor(self, contract: Iterable[str] = (), delete: Iterable[str] = ()) -> "Matroid":
        """Contract `contract` and delete `delete`.

        Convention: if the contracted set is dependent the resulting basis
        family is EMPTY (so its generating polynomial is 0), rather than
        undefined.  Callers relying on standard re-ranked deletion should
        use `restriction`.
        """
        cmask = self._mask(contract)
        dmask = self._mask(delete)
        if cmask & dmask:
            raise ValueError("contract and delete sets must be disjoint")
        keep = [
            e
            for i, e in enumerate(self.elements)
            if not (cmask | dmask) >> i & 1
        ]
        csize = cmask.bit_count()
        new_rank = max(self.rank - csize, 0)
        if self._rank_of_mask(cmask) < csize:
            return Matroid(keep, new_rank, ())
        remap = self._remap_table(keep)
        new_masks = set()
        for b in self._masks:
            if b & cmask == cmask and not b & dmask:
                new_masks.add(self._remap_mask(b & ~cmask, remap))
        return Matroid(keep, new_rank, new_masks)

    def delete(self, subset: Iterable[str]) -> "Matroid":
        return self.minor((), subset)

    def contract(self, subset: Iterable[str]) -> "Matroid":
        return self.minor(subset, ())

    def _remap_table(self, keep: list[str]) -> dict[int, int]:
        return {self._index[e]: j for j, e in enumerate(keep)}

    @staticmethod
    def _remap_mask(mask: int, remap: Mapping[int, int]) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << remap[low.bit_length() - 1]
            mask ^= low
        return out

    def dual(self) -> "Matroid":
        full = (1 << self.n) - 1
        return Matroid(
            self.elements, self.n - self.rank, tuple(full ^ b for b in self._masks)
        )

    def restriction(self, subset: Iterable[str]) -> "Matroid":
        """Standard restriction to `subset`, re-ranked to rank_of(subset)."""
        smask = self._mask(subset)
        keep = [e for i, e in enumerate(self.elements) if smask >> i & 1]
        r = self._rank_of_mask(smask)
        remap = self._remap_table(keep)
        new_masks = set()
        for b in self._masks:
            inter = b & smask
            if inter.bit_count() == r:
                new_masks.add(self._remap_mask(inter, remap))
        return Matroid(keep, r, new_masks)

    def _packed_bases(self) -> tuple[int, ...]:
        """The bases as packed monomials (see `poly.pack_mask`), in the order
        of `basis_masks`, memoised per matroid."""
        cached = self._packed
        if cached is None:
            from .poly import pack_mask  # enumerating loads no polynomial code

            cached = tuple(map(pack_mask, self._masks))
            object.__setattr__(self, "_packed", cached)
        return cached

    # -- simplification ----------------------------------------------------

    def _shares(self) -> tuple[int, ...]:
        """shares[i]: the elements lying in some basis together with element i
        (i itself included unless it is a loop), memoised per matroid."""
        cached = self._share_masks
        if cached is None:
            shares = [0] * len(self.elements)
            for b in self._masks:
                rest = b
                while rest:
                    low = rest & -rest
                    shares[low.bit_length() - 1] |= b
                    rest ^= low
            cached = tuple(shares)
            object.__setattr__(self, "_share_masks", cached)
        return cached

    def parallel_classes(self) -> list[tuple[str, ...]]:
        """Parallel classes of the non-loop elements, each sorted, in order
        of their smallest member.

        A loop shares a basis with nothing, and two non-loops are parallel
        exactly when no basis contains both.
        """
        shares = self._shares()
        n = len(shares)
        classes: list[tuple[str, ...]] = []
        assigned = 0
        for i in range(n):
            if not shares[i] or assigned >> i & 1:
                continue
            members = [i] + [
                j for j in range(i + 1, n) if shares[j] and not shares[i] >> j & 1
            ]
            for j in members:
                assigned |= 1 << j
            classes.append(tuple(sorted(self.elements[j] for j in members)))
        return sorted(classes, key=lambda c: c[0])

    def _simplicity_witnesses(self) -> tuple[tuple[int, int], ...]:
        """(bit, missing) for each position whose share mask is not full,
        memoised per matroid: `missing` holds the positions that share no
        basis with it.  These are the loops (missing everything) and the
        elements with a parallel partner; a simple matroid has none."""
        cached = self._witnesses
        if cached is None:
            full = (1 << len(self.elements)) - 1
            cached = tuple(
                (1 << i, full & ~s) for i, s in enumerate(self._shares()) if s != full
            )
            object.__setattr__(self, "_witnesses", cached)
        return cached

    def is_simple(self, deleted: int = 0) -> bool:
        """No loops and no parallel pairs: every element shares a basis with
        every element.  With `deleted`, a bitmask of positions, the answer
        for `delete` of them, which keeps the bases avoiding them: with one
        left, ranks in the rest are unchanged, so its loops and parallel
        pairs are this matroid's outside `deleted`.

        A call scans the bases for one avoiding `deleted`, then tests only
        the memoised `_simplicity_witnesses`: a kept witness is a fault
        exactly when some position it misses is kept too.  On a simple
        matroid there is nothing to test.  A mask with a bit outside the
        ground set raises ValueError.
        """
        full = (1 << len(self.elements)) - 1
        if deleted & ~full:
            raise ValueError(f"mask {deleted:#x} has bits outside the ground set")
        if 0 not in map(deleted.__and__, self._masks):  # no basis avoids them
            return deleted == full
        keep = full ^ deleted
        for bit, missing in self._simplicity_witnesses():
            if bit & keep and missing & keep:
                return False
        return True

    def simplify(self) -> "SimplifyResult":
        """Delete loops, keep one representative per parallel class.

        The substitution map sends each surviving representative to its
        whole parallel class; replacing y_rep by the sum of the class
        variables in the simplified matroid's generating polynomial
        recovers the original one.
        """
        loops = self.loops()
        classes = self.parallel_classes()
        substitution = {min(c): c for c in classes}
        keep = set(substitution)
        dropped = [e for e in self.elements if e not in keep]
        simple = self.minor((), dropped)
        return SimplifyResult(simple, substitution, loops)

    # -- axioms --------------------------------------------------------------

    def validate(self) -> list[str]:
        """Check the exchange axiom; violations come back as messages.

        For each basis B1 and each x in B1, the fundamental cocircuit of x is
        the cut {x} ∪ {y ∉ B1 : B1 − x + y is a basis}.  Every basis B2 must
        meet it: B2 ∌ x forces B2 ≠ B1, and then B2 ∩ cut holds exactly the
        y ∈ B2 − B1 that the exchange axiom asks for.  So B2 missing the cut
        is the failure reported for (B1, B2, x), in the same order.

        Basis sizes need no check here: the constructor rejects a basis
        whose size differs from the rank.
        """
        return list(self._exchange_failures())

    def _exchange_failures(self) -> Iterator[str]:
        """The messages of `validate`, lazily, in the same order.

        holders[i] is the set of basis indices whose basis contains element
        i, so the bases meeting a cut are the OR of its elements' holders,
        and the bases B2 failing for (B1, x) are the zero bits of that OR.
        The cut of (B1, x) is {y : F + y is a basis} for F = B1 - x, so the
        bases missing it are built on F's first need and kept (0 if valid).
        """
        masks = self._masks
        bases = set(masks)
        everything = (1 << len(masks)) - 1
        # `bits` holds one n-character row per basis, last basis first, each
        # written from position n-1 down to 0: the column of position i,
        # read as a binary number, has bit k set iff basis k holds i.
        n = self.n
        bits = "".join(format(b, f"0{n}b") for b in reversed(masks))
        holders = [int(bits[n - 1 - i :: n] or "0", 2) for i in range(n)]
        missed: dict[int, int] = {}  # F -> the bases missing F's cut
        for b1 in masks:
            misses = []  # (x's label, the bases missing x's cut)
            for i, el in enumerate(self.elements):
                if b1 >> i & 1:
                    rest = b1 ^ 1 << i
                    if rest not in missed:
                        cut = [holders[j] for j in range(self.n) if rest | 1 << j in bases]
                        missed[rest] = everything & ~reduce(or_, cut)
                    if missed[rest]:
                        misses.append((el, missed[rest]))
            failing = reduce(or_, (miss for _, miss in misses), 0)
            while failing:
                low = failing & -failing
                failing ^= low
                b2 = masks[low.bit_length() - 1]
                for removed, miss in misses:
                    if miss & low:
                        yield (
                            "exchange fails for bases "
                            f"{sorted(self._unmask(b1))} / {sorted(self._unmask(b2))}"
                            f" removing {removed!r}"
                        )


class SimplifyResult(NamedTuple):
    matroid: Matroid
    substitution: dict[str, tuple[str, ...]]
    loops: tuple[str, ...]


def with_parallel_copy(m: Matroid, x: str, new_id: str) -> Matroid:
    """Extend m by a new element parallel to x (appended to the ground set)."""
    if x not in m._index:
        raise ValueError(f"element {x!r} not in the ground set")
    if new_id in m._index:
        raise ValueError(f"element {new_id!r} already present")
    elements = m.elements + (new_id,)
    xbit = 1 << m._index[x]
    nbit = 1 << m.n
    masks = list(m.basis_masks)
    for b in m.basis_masks:
        if b & xbit:
            masks.append((b ^ xbit) | nbit)
    return Matroid(elements, m.rank, masks)


# ---------------------------------------------------------------------------
# Point-line geometries (simple rank-3 descriptions).


@lru_cache(maxsize=None)
def _pair_layout(n: int) -> tuple[int, int, int]:
    w = n + 2  # row width of the pair bits
    copies = sum(1 << (n + 1) * a for a in range(n))
    diagonal = sum(1 << w * a for a in range(n))
    upper = sum(1 << w * a + b for a in range(n) for b in range(a + 1, n))
    return copies, diagonal, upper


def _pair_bits(mask: int, n: int) -> int:
    """One bit, ``a*(n+2) + b``, for each pair a < b of the points of `mask`
    in range(n).  Two masks share two points exactly when their pair bits meet.

    Two products build the bits without a loop over the points: ``mask *
    copies`` puts a copy of `mask` at every multiple of n+1, so bit a of copy
    a lands at a*(n+2), and the diagonal keeps those bits; `mask` times them
    then puts a copy of `mask` at a*(n+2) for each point a.  The copies never
    overlap, so no carries arise.
    """
    copies, diagonal, upper = _pair_layout(n)
    return mask * (mask * copies & diagonal) & upper


def from_geometry(points: Iterable[str], lines: Iterable[Iterable[str]]) -> Matroid:
    """The rank-3 matroid on `points` whose bases are the non-collinear triples.

    This is the one check of a point-line geometry from outside (a file, the
    catalog table): the lines must make a linear space, in which each line
    has >= 3 known points and two distinct points lie on at most one common
    line.  Violations are reported in a fixed order (duplicate points, then
    each line in sorted order, then each pair of lines), at most three of
    them.  The census builds its classes from line masks it found itself,
    which already make a linear space, with `_from_line_masks`.
    """
    points = tuple(_check_element_id(p) for p in points)
    if len(points) > 64:
        raise ValueError("at most 64 elements supported")
    # (line, copies) for each distinct line as its sorted tuple of points, in
    # sorted order; identical lists are counted before any of them is sorted
    counts = Counter()
    for line, copies in Counter(map(tuple, lines)).items():
        counts[tuple(sorted(set(line)))] += copies
    runs = sorted(counts.items())
    # each line's mask over its known points
    bit = {p: 1 << i for i, p in enumerate(points)}
    masks = [sum(map(bit.get, line, repeat(0))) for line, _ in runs]

    def problems():
        known = set(points)
        if len(known) != len(points):
            yield "duplicate points"
        strays = set()  # runs whose line uses unknown points
        for u, (line, copies) in enumerate(runs):
            short, stray = len(line) < 3, not known.issuperset(line)
            if stray:
                strays.add(u)
            if short or stray:
                for _ in range(copies):
                    if short:
                        yield f"line {list(line)} has fewer than 3 points"
                    if stray:
                        yield f"line {list(line)} uses unknown points"
        # Past this point at most two lines use unknown points (three would
        # have made three problems).  Two lines share two points when the
        # pair bits of their known points meet, or, for those two, directly.
        pairs = [_pair_bits(mask, len(points)) for mask in masks]

        def clash(u: int, v: int) -> bool:
            if u in strays and v in strays:
                return len(set(runs[u][0]).intersection(runs[v][0])) > 1
            return bool(pairs[u] & pairs[v])

        # clashing[u]: line u shares two points with a later line; only the
        # few lines reached before three problems are compared one by one.
        clashing = [False] * len(runs)
        later = 0
        for u in reversed(range(len(runs))):
            clashing[u] = bool(pairs[u] & later)
            later |= pairs[u]
        for u, v in combinations(sorted(strays), 2):
            clashing[u] = clashing[u] or clash(u, v)
        # The pairs of lines in order: for each copy of a line, the later
        # copies, then the copies of each later line sharing two points.
        for u, (line, copies) in enumerate(runs):
            clashes = []
            if clashing[u]:
                clashes = [v for v in range(u + 1, len(runs)) if clash(u, v)]
            for copy in range(copies):
                for _ in range(copies - 1 - copy):
                    yield f"duplicate line {list(line)}"
                for v in clashes:
                    other, times = runs[v]
                    for _ in range(times):
                        yield f"lines {list(line)} and {list(other)} share two points"

    first = list(islice(problems(), 3))
    if first:
        raise ValueError("not a linear space: " + "; ".join(first))
    if len(points) < 3:
        raise ValueError("rank < 3: fewer than three points")
    # With every pair of points on at most one line, all triples are
    # collinear exactly when one line holds every point.
    if any(len(line) == len(points) for line, _ in runs):
        raise ValueError("rank < 3: all points collinear")
    return _from_line_masks(points, masks)


def _from_line_masks(points: Sequence[str], lines: Iterable[int]) -> Matroid:
    """The rank-3 matroid on `points` whose bases are the triples that no line
    holds, each line a bitmask over the positions of `points`.  The lines are
    not checked: they must make a linear space on >= 3 points with no line
    through all of them, as `from_geometry` ensures."""
    collinear = {
        1 << a | 1 << b | 1 << c
        for line in lines
        for a, b, c in combinations([i for i in range(len(points)) if line >> i & 1], 3)
    }
    triples = (1 << a | 1 << b | 1 << c for a, b, c in combinations(range(len(points)), 3))
    return Matroid(points, 3, [tri for tri in triples if tri not in collinear])


def line_masks(m: Matroid) -> tuple[int, ...]:
    """Rank-2 flats with at least 3 elements, for a simple rank-3 matroid, as
    ascending bitmasks over the element positions."""
    if m.rank != 3 or not m.is_simple():
        raise ValueError("lines are only extracted from simple rank-3 matroids")
    seen = set()
    for i in range(m.n):
        for j in range(i + 1, m.n):
            flat = m.closure_mask(1 << i | 1 << j)
            if flat.bit_count() >= 3:
                seen.add(flat)
    return tuple(sorted(seen))


def lines_of(m: Matroid) -> list[tuple[str, ...]]:
    """The lines of `line_masks`, each as its sorted labels, in sorted order."""
    return sorted(tuple(sorted(m._unmask(mask))) for mask in line_masks(m))


# ---------------------------------------------------------------------------
# JSON interchange format.
#
# Bases form:    {"elements": [...], "rank": r, "bases": [[...], ...]}
# Geometry form: {"elements": [...], "lines": [[...], ...]}  (rank 3 implied)
#
# Unknown keys are rejected so that typos fail loudly.


def _is_string_list(value) -> bool:
    # Checked before any entry is hashed: a list or object id is unhashable.
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


def matroid_from_json_dict(data: Mapping) -> Matroid:
    if not isinstance(data, Mapping):
        raise ValueError("matroid JSON must be an object")
    keys = set(data)
    if "elements" not in keys:
        raise ValueError("missing key 'elements'")
    elements = data["elements"]
    if not _is_string_list(elements):
        raise ValueError("'elements' must be a list of strings")
    if keys == {"elements", "rank", "bases"}:
        rank = data["rank"]
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ValueError("'rank' must be a nonnegative integer")
        bases = data["bases"]
        if not isinstance(bases, list) or not all(_is_string_list(b) for b in bases):
            raise ValueError("'bases' must be a list of lists of strings")
        if not bases:
            raise ValueError("empty basis family (rank 0 has the one basis [])")
        m = Matroid.from_bases(elements, bases, rank=rank)
        first = list(islice(m._exchange_failures(), 3))
        if first:
            raise ValueError("not a matroid: " + "; ".join(first))
        return m
    if keys == {"elements", "lines"}:
        lines = data["lines"]
        if not isinstance(lines, list) or not all(_is_string_list(l) for l in lines):
            raise ValueError("'lines' must be a list of lists of strings")
        return from_geometry(elements, lines)
    unknown = keys - {"elements", "rank", "bases", "lines"}
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    raise ValueError(
        "matroid JSON needs either 'rank' and 'bases' or 'lines' alongside 'elements'"
    )


def matroid_to_json_dict(m: Matroid) -> dict:
    """Serialize: geometry form for simple rank-3 matroids, else bases form."""
    if m.rank == 3 and m.is_simple():
        return {
            "elements": list(m.elements),
            "lines": [list(line) for line in lines_of(m)],
        }
    return {
        "elements": list(m.elements),
        "rank": m.rank,
        "bases": sorted(sorted(b) for b in m.bases),
    }


def loads_matroid(text: str) -> Matroid:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return matroid_from_json_dict(data)


def dumps_matroid(m: Matroid) -> str:
    return json.dumps(matroid_to_json_dict(m), indent=2, sort_keys=True)
