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
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import NamedTuple

from .matroid import (
    Matroid,
    _from_line_masks,
    _pair_bits,
    canonical_form,
    from_geometry,
    transposition_twins,
)


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

