"""Named small matroids and exhaustive enumeration of simple rank-3 matroids.

The named instances are point-line geometries (linear spaces) shipped as JSON
data files, plus uniform matroids built on demand from a ``U_r_m`` name.  The
enumerator produces every isomorphism class of linear space on n <= 8 points
(equivalently, every simple rank-3 matroid) by an orderly search: a line set is
represented as the ascending tuple of its line bitmasks, and a set is kept only
if that tuple is lexicographically minimal over all relabelings of the points.
Minimality of a set implies minimality of every prefix, so the search may grow
sets one line at a time, appending only lines larger than the current maximum,
and prune as soon as a prefix is non-canonical.
"""

from __future__ import annotations

import itertools
import json
import re
from functools import lru_cache
from importlib import resources
from typing import Iterable, NamedTuple

from .matroid import (
    Geometry,
    Matroid,
    canonical_form,
    from_geometry,
    matroid_from_json_dict,
)


class NamedInstance(NamedTuple):
    name: str
    matroid: Matroid
    note: str


class EnumerationResult(NamedTuple):
    n: int
    classes: tuple[Matroid, ...]
    count: int


_UNIFORM_RE = re.compile(r"U_(\d+)_(\d+)")

# Short geometric descriptions of the shipped instances.
_NOTES = {
    "fig1.I": "four points: one point off a three-point line",
    "fig1.II": "four points in general position",
    "fig2.I": "five points: one point off a four-point line",
    "fig2.II": "five points: two three-point lines meeting in a point",
    "fig2.III": "five points: a three-point line plus two free points",
    "fig2.IV": "five points in general position",
    "fig3.I": "six points: one point off a five-point line",
    "fig3.II": "six points: a four-point line and a three-point line meeting in a point",
    "fig3.III": "six points: a four-point line plus two free points",
    "fig3.IV": "six points: four three-point lines meeting pairwise in distinct points",
    "fig3.V": "six points: a triangle with one extra point on each side",
    "fig3.VI": "six points: two three-point lines meeting in a point, plus a free point",
    "fig3.VII": "six points: two disjoint three-point lines",
    "fig3.VIII": "six points: a three-point line plus three free points",
    "fig3.IX": "six points in general position",
    "K4": "cycle matroid of the complete graph on four vertices; "
    "elements 1..6 pair into the three perfect matchings {1,2}, {3,4}, {5,6}",
    "bowtie7": "seven points: two four-point lines meeting in a point",
}


def catalog_names() -> tuple[str, ...]:
    """Names of the shipped instances (uniform ``U_r_m`` names are implicit)."""
    return tuple(sorted(_NOTES))


def uniform(rank: int, size: int) -> Matroid:
    """The uniform matroid: every rank-subset of 1..size is a basis."""
    if rank < 0 or size < 0 or rank > size:
        raise ValueError(f"no uniform matroid of rank {rank} on {size} elements")
    if size > 16:
        raise ValueError("uniform matroids are capped at 16 elements")
    elements = [str(i) for i in range(1, size + 1)]
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
    if name not in _NOTES:
        raise KeyError(
            f"unknown instance {name!r}; available: {', '.join(catalog_names())} or U_r_m"
        )
    text = resources.files("rayleigh_kit").joinpath("data", name + ".json").read_text()
    return NamedInstance(name, matroid_from_json_dict(json.loads(text)), _NOTES[name])


def named(name: str) -> Matroid:
    """The matroid of a named instance (``fig2.III``, ``K4``, ``U_2_5``, ...)."""
    return instance(name).matroid


# ---------------------------------------------------------------------------
# Orderly enumeration of linear spaces.

_MAX_N = 8


def _is_canonical(masks: tuple[int, ...], n: int) -> bool:
    """Is the ascending mask tuple lex-minimal over all point relabelings?"""
    return canonical_form(masks, n, beat=masks) is None


def canonical_line_key(masks: Iterable[int], n: int) -> tuple[int, ...]:
    """Lex-minimal ascending mask tuple over all point relabelings."""
    return canonical_form(masks, n)[0]


def _candidate_lines(n: int) -> list[int]:
    """Bitmasks usable as lines: 3 <= size <= n-1 (a full line would mean rank 2)."""
    return [
        mask for mask in range(1 << n) if 3 <= bin(mask).count("1") <= n - 1
    ]


def _space_matroid(masks: tuple[int, ...], n: int) -> Matroid:
    points = [str(i) for i in range(1, n + 1)]
    lines = [
        [points[i] for i in range(n) if mask >> i & 1] for mask in masks
    ]
    return from_geometry(Geometry.build(points, lines))


@lru_cache(maxsize=None)
def enumerate_simple_rank3(n: int) -> EnumerationResult:
    """All isomorphism classes of simple rank-3 matroids on n points, 3 <= n <= 8.

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


def naive_enumerate_simple_rank3(n: int) -> EnumerationResult:
    """Slow cross-check: generate every labeled line set, dedupe by canonical key.

    Intended for n <= 6 (the labeled count grows rapidly).
    """
    if not 3 <= n <= 7:
        raise ValueError(f"n must be between 3 and 7, got {n}")
    candidates = _candidate_lines(n)
    seen: set[tuple[int, ...]] = set()

    def extend(current: tuple[int, ...], start: int) -> None:
        seen.add(canonical_line_key(current, n))
        for idx in range(start, len(candidates)):
            line = candidates[idx]
            if any(bin(line & prev).count("1") > 1 for prev in current):
                continue
            extend(current + (line,), idx + 1)

    extend((), 0)
    ordered = sorted(seen, key=lambda masks: (len(masks), masks))
    classes = tuple(_space_matroid(masks, n) for masks in ordered)
    return EnumerationResult(n, classes, len(classes))
