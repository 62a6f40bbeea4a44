"""Named small matroids and exhaustive enumeration of simple rank-3 matroids.

The named instances are point-line geometries (linear spaces) listed in a
table below, plus uniform matroids built on demand from a ``U_r_m`` name.  The
enumerator produces every isomorphism class of linear space on n <= 9 points
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

from .matroid import Matroid, canonical_form, from_geometry


class NamedInstance(NamedTuple):
    name: str
    matroid: Matroid
    note: str


class EnumerationResult(NamedTuple):
    n: int
    classes: tuple[Matroid, ...]
    count: int


_UNIFORM_RE = re.compile(r"U_(\d+)_(\d+)")

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

_MAX_N = 9


def _is_canonical(masks: tuple[int, ...], n: int) -> bool:
    """Is the ascending mask tuple lex-minimal over all point relabelings?"""
    return canonical_form(masks, n, beat=masks) is None


def _candidate_lines(n: int) -> list[int]:
    """Bitmasks usable as lines: 3 <= size <= n-1 (a full line would mean rank 2)."""
    return [
        mask for mask in range(1 << n) if 3 <= bin(mask).count("1") <= n - 1
    ]


def _space_matroid(masks: tuple[int, ...], n: int) -> Matroid:
    points = _points(n)
    return from_geometry(
        points, ([points[i] for i in range(n) if mask >> i & 1] for mask in masks)
    )


@lru_cache(maxsize=None)
def enumerate_simple_rank3(n: int) -> EnumerationResult:
    """All isomorphism classes of simple rank-3 matroids on n points, 3 <= n <= 9.

    Deterministic: classes are sorted by (number of lines, mask tuple) of their
    canonical line sets.
    """
    if not 3 <= n <= _MAX_N:
        raise ValueError(f"n must be between 3 and {_MAX_N}, got {n}")
    candidates = _candidate_lines(n)
    found: list[tuple[int, ...]] = []

    def extend(current: tuple[int, ...], start: int) -> None:
        found.append(current)
        for idx in range(start, len(candidates)):
            line = candidates[idx]
            if any(bin(line & prev).count("1") > 1 for prev in current):
                continue
            grown = current + (line,)
            if _is_canonical(grown, n):
                extend(grown, idx + 1)

    extend((), 0)
    found.sort(key=lambda masks: (len(masks), masks))
    classes = tuple(_space_matroid(masks, n) for masks in found)
    return EnumerationResult(n, classes, len(classes))

