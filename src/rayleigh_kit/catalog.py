"""Named small matroids and exhaustive enumeration of simple rank-3 matroids.

The named instances are point-line geometries (linear spaces) listed in a
table below, plus uniform matroids built on demand from a ``U_r_m`` name.  The
enumerator produces every isomorphism class of linear space on n <= 10 points
(equivalently, every simple rank-3 matroid) by an orderly search: a line set is
represented as the ascending tuple of its line bitmasks, and a set is kept only
if that tuple is lexicographically minimal over all relabelings of the points.
Minimality of a set implies minimality of every prefix, so the search may grow
sets one line at a time, appending only lines larger than the current maximum,
and prune as soon as a prefix is non-canonical.

That test is the package's one canonical-form engine, `canonical_form` (with
its twin test `transposition_twins`), which lives here beside the census;
the coefficient tables (`tables`) pin their restrictions with it too.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .matroid import Matroid, _from_line_masks, _pair_bits, from_geometry


class NamedInstance(NamedTuple):
    name: str
    matroid: Matroid
    note: str


class EnumerationResult(NamedTuple):
    n: int
    classes: tuple[Matroid, ...]
    count: int


_UNIFORM_RE = re.compile(r"U_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)")  # no leading zeros

# The shipped instances: name -> (n, lines, note) on the points "1".."n",
# each line written as the string of its single-digit point labels.
_CATALOG = {
    "fig1.I": (4, ["234"], "four points: one point off a three-point line"),
    "fig1.II": (4, [], "four points in general position"),
    "fig2.I": (5, ["2345"], "five points: one point off a four-point line"),
    "fig2.II": (5, ["245", "135"], "five points: two three-point lines meeting in a point"),
    "fig2.III": (5, ["345"], "five points: a three-point line plus two free points"),
    "fig2.IV": (5, [], "five points in general position"),
    "fig3.I": (6, ["23456"], "six points: one point off a five-point line"),
    "fig3.II": (6, ["2456", "136"], "six points: a four-point line and a three-point "
                "line meeting in a point"),
    "fig3.III": (6, ["3456"], "six points: a four-point line plus two free points"),
    "fig3.IV": (6, ["235", "136", "246", "145"], "six points: four three-point lines "
                "meeting pairwise in distinct points"),
    "fig3.V": (6, ["234", "126", "135"], "six points: a triangle with one extra point "
               "on each side"),
    "fig3.VI": (6, ["256", "146"], "six points: two three-point lines meeting in a "
                "point, plus a free point"),
    "fig3.VII": (6, ["134", "256"], "six points: two disjoint three-point lines"),
    "fig3.VIII": (6, ["456"], "six points: a three-point line plus three free points"),
    "fig3.IX": (6, [], "six points in general position"),
    "K4": (6, ["235", "136", "246", "145"], "cycle matroid of the complete graph on "
           "four vertices; elements 1..6 pair into the three perfect matchings "
           "{1,2}, {3,4}, {5,6}"),
    "bowtie7": (7, ["1347", "2567"], "seven points: two four-point lines meeting in a point"),
}


def catalog_names() -> tuple[str, ...]:
    """Names of the shipped instances (uniform ``U_r_m`` names are implicit)."""
    return tuple(sorted(_CATALOG))


def _points(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def uniform(rank: int, size: int) -> Matroid:
    """The uniform matroid: every rank-subset of 1..size is a basis."""
    if rank < 0 or size < 0 or rank > size:
        raise ValueError(f"no uniform matroid of rank {rank} on {size} elements")
    if size > 16:
        raise ValueError("uniform matroids are capped at 16 elements")
    elements = _points(size)
    return Matroid.from_bases(
        elements, itertools.combinations(elements, rank), rank=rank
    )


@lru_cache(maxsize=None)
def instance(name: str) -> NamedInstance:
    """Look up a named instance; raises KeyError for unknown names."""
    m = _UNIFORM_RE.fullmatch(name)
    if m:
        rank, size = int(m.group(1)), int(m.group(2))
        return NamedInstance(
            name, uniform(rank, size), f"uniform matroid of rank {rank} on {size} elements"
        )
    if name not in _CATALOG:
        raise KeyError(
            f"unknown instance {name!r}; available: {', '.join(catalog_names())} or U_r_m"
        )
    n, lines, note = _CATALOG[name]
    return NamedInstance(name, from_geometry(_points(n), lines), note)


def named(name: str) -> Matroid:
    """The matroid of a named instance (``fig2.III``, ``K4``, ``U_2_5``, ...)."""
    return instance(name).matroid


# ---------------------------------------------------------------------------
# Canonical forms.


def transposition_twins(
    family: frozenset[int], n: int, cell_of: Optional[list[int]] = None
) -> list[int]:
    """``twins[p]``: the points q of p's cell whose transposition with p maps
    the family of bitmasks onto itself.

    ``cell_of[p]`` is the bitmask of the cell holding point p (default: one
    cell of all n points).  The relation is symmetric, and a point is never
    its own twin.
    """
    if cell_of is None:
        cell_of = [(1 << n) - 1] * n
    degree = [0] * n  # an automorphism keeps each point's degree
    for m in family:
        while m:
            low = m & -m
            degree[low.bit_length() - 1] += 1
            m ^= low
    twins = [0] * n
    for p in range(n):
        later = cell_of[p] >> p + 1 << p + 1  # the points after p in its cell
        while later:
            low = later & -later
            later ^= low
            q = low.bit_length() - 1
            swap = 1 << p | low
            if degree[q] == degree[p] and all(
                (m ^ swap) in family for m in family if (m & swap) not in (0, swap)
            ):
                twins[p] |= low
                twins[q] |= 1 << p
    return twins


def canonical_form(
    masks: Iterable[int],
    n: int,
    cells: Optional[Iterable[Iterable[int]]] = None,
    *,
    beat: Optional[tuple[int, ...]] = None,
) -> Optional[tuple[int, ...]]:
    """Lex-minimal image of a family of bitmasks over relabellings of range(n).

    A relabelling sends each point to a position; the image of the family is
    the ascending tuple of its relabelled masks.  `cells` is an ordered
    partition of range(n) (default: one cell): the points of the first cell
    take the first positions, those of the second the next ones, and so on.
    Returns the minimal image, the form.  For a family of at most one mask
    it is read off without a search: in each cell the mask's points take the
    cell's lowest positions (cells fill disjoint ranges of positions, so no
    other choice gives a smaller integer).

    With `beat`, an ascending image of the same family (for instance the
    family itself), the search stops at the first relabelling whose image is
    lex-smaller than `beat` and returns that image, or returns None if there
    is none.

    Positions are filled in order.  A mask's image is fixed once its last
    point is placed at position j, and then lies in [2^j, 2^(j+1)), so the
    sorted image only ever grows by appending.  Each non-empty mask keeps
    ``part``, the image of its placed points, and ``left``, the number of its
    unplaced points; both are updated as a point is placed and undone on
    backtrack.  A branch is cut when its prefix exceeds the best image, or
    ties with it while the best image's next entry is below 2^(j+1); of two
    unplaced points whose transposition maps the family onto itself only one
    is tried at each position.

    A look-ahead filter saves work at a node whose prefix ties with the best
    image.  Let t be the best image's next entry.  The next entry of a
    branch's image is the least final image of an unfinished mask, so the
    branch can tie or win only if some unfinished mask ends at most t; and a
    mask whose last point goes to position k ends at least at 2^k.  With
    point p at position j, the least image of an unfinished mask m is
    ``part | bits j..j+left-1`` if m holds p, and ``part | bits j+1..j+left``
    if not.  So if the second bound is at most t for some m, every free point
    passes; otherwise only the points of the masks whose first bound is at
    most t do.  With t's last bit at position k and r = k - j + 1, a mask
    with ``left > r`` meets neither bound; one with ``left == r`` meets only
    the first, if ``part | bits j..k <= t``; one with ``left == r - 1``
    meets the first, and the second if ``part | bits j+1..k <= t``; and one
    with ``left < r - 1`` meets both.  Each dropped point starts a branch
    that can only lose.  The
    filter is set at node entry and stays safe, as the best image only
    decreases.  The swap of two free twins maps the masks holding one onto
    those holding the other, with the same ``part`` and ``left``, so twins
    pass or fail together, and the points left are tried in the same order.
    So the form and the `beat` result are those of the search without the
    filter.
    """
    family = frozenset(masks)
    size = len(family)
    cells = [range(n)] if cells is None else [list(c) for c in cells]
    if sorted(p for cell in cells for p in cell) != list(range(n)):
        raise ValueError("cells must partition range(n)")
    if beat is None and size <= 1:
        # At most one mask: its points take the lowest positions of each
        # cell, which gives the least image; the empty mask stays 0.
        form = start = 0
        for mask in family:
            for cell in cells:
                count = sum(mask >> p & 1 for p in cell)
                form |= ((1 << count) - 1) << start
                start += len(cell)
        return (form,) if family else ()
    slots: list[int] = []  # slots[j]: bitmask of the points allowed at position j
    cell_of = [0] * n
    for cell in cells:
        cell_mask = sum(1 << p for p in cell)
        for p in cell:
            cell_of[p] = cell_mask
        slots += [cell_mask] * len(cell)
    members = [m for m in family if m]
    # containing[p]: the indices i of the members that hold point p
    containing: list[list[int]] = [[] for _ in range(n)]
    for i, m in enumerate(members):
        while m:
            low = m & -m
            containing[low.bit_length() - 1].append(i)
            m ^= low
    part = [0] * len(members)  # part[i]: the image of members[i]'s placed points
    left = [m.bit_count() for m in members]  # left[i]: its unplaced points
    twins = transposition_twins(family, n, cell_of)

    prefix = [0] if 0 in family else []
    initial = best = None if beat is None else list(beat)

    def search(j: int, placed: int, tied: bool) -> bool:
        """Extend the placement from position j; True means stop."""
        nonlocal best
        if j == n:
            if tied:
                return False
            best = prefix[:]
            return beat is not None
        start = len(prefix)
        bit = 1 << j
        tried = 0
        free = slots[j] & ~placed
        if tied:
            # Keep only points after which some unfinished mask can still
            # end at most t, the best image's next entry (see above).
            t = best[start] if start < size else 0
            reach = (t >> j).bit_length()  # k - j + 1, t's last bit at k
            last = ((1 << reach) - 1) << j  # bits j..k
            keep = 0
            for m, have, need in zip(members, part, left):
                if need == reach:
                    if have | last <= t:  # with p at j
                        keep |= m
                elif need and need < reach:  # with p at j, below 2^k
                    if need < reach - 1 or have | last ^ bit <= t:
                        break  # and without p: every point passes
                    keep |= m
            else:
                free &= keep
        while free:
            low = free & -free
            free ^= low
            p = low.bit_length() - 1
            if twins[p] & tried:
                continue
            tried |= low
            mine = containing[p]
            seg = [part[i] | bit for i in mine if left[i] == 1]
            seg.sort()
            end = start + len(seg)
            child_tied = False
            if tied:
                target = best[start:end]
                if seg > target:
                    continue
                if seg == target:
                    if end == size or best[end] < 2 << j:
                        continue
                    child_tied = True
            for i in mine:
                part[i] |= bit
                left[i] -= 1
            prefix.extend(seg)
            before = best
            if search(j + 1, placed | low, child_tied):
                return True
            del prefix[start:]
            # A new best found below extends this node's prefix.
            if best is not before:
                tied = True
            for i in mine:
                part[i] ^= bit
                left[i] += 1
        return False

    search(0, 0, beat is not None)
    return None if best is initial else tuple(best)


# ---------------------------------------------------------------------------
# Orderly enumeration of linear spaces.

_MAX_N = 10


def _is_canonical(masks: tuple[int, ...], n: int) -> bool:
    """Is the ascending mask tuple lex-minimal over all point relabelings?"""
    return canonical_form(masks, n, beat=masks) is None


def _candidate_lines(n: int) -> list[int]:
    """Bitmasks usable as lines: 3 <= size <= n-1 (a full line would mean rank 2)."""
    return [
        mask for mask in range(1 << n) if 3 <= bin(mask).count("1") <= n - 1
    ]


@lru_cache(maxsize=None)
def enumerate_simple_rank3(n: int) -> EnumerationResult:
    """All isomorphism classes of simple rank-3 matroids on n points, 3 <= n <= 10.

    Deterministic: classes are sorted by (number of lines, mask tuple) of their
    canonical line sets.

    A candidate line may join `current` only if it shares at most one point
    with each of its lines.  Each candidate's point-pair bits (`_pair_bits`)
    are computed once, and each node receives the OR of the pair bits of
    its lines, so the test is one AND.

    Each node first finds the transposition twins of its line set `current`
    and skips a candidate `line` holding a point q whose twin p < q is off
    it, without the canonicity test.  That test would fail: the swap (p q)
    maps ``grown = current + (line,)`` to ``current | {line - q + p}``, and
    ``line - q + p < line`` while `line` exceeds every member of `current`,
    so the sorted image is lex-smaller than `grown`.
    """
    if not 3 <= n <= _MAX_N:
        raise ValueError(f"n must be between 3 and {_MAX_N}, got {n}")
    candidates = _candidate_lines(n)
    pairs = [_pair_bits(line, n) for line in candidates]
    found: list[tuple[int, ...]] = []

    def extend(current: tuple[int, ...], start: int, covered: int) -> None:
        found.append(current)
        twins = transposition_twins(frozenset(current), n)
        # (1 << q, the twins of q below q) for each point q that has one
        lowered = [(1 << q, t & (1 << q) - 1) for q, t in enumerate(twins)
                   if t & (1 << q) - 1]
        for idx in range(start, len(candidates)):
            if pairs[idx] & covered:  # shares two points with a line
                continue
            line = candidates[idx]
            if any(line & bit and below & ~line for bit, below in lowered):
                continue
            grown = current + (line,)
            if _is_canonical(grown, n):
                extend(grown, idx + 1, covered | pairs[idx])

    extend((), 0, 0)
    found.sort(key=lambda masks: (len(masks), masks))
    points = _points(n)
    classes = tuple(_from_line_masks(points, masks) for masks in found)
    return EnumerationResult(n, classes, len(classes))

