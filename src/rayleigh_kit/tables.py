"""The coefficient tables behind the certificate's dominance check.

For a simple matroid with {e,f} closed, the coefficient of a degree-4
monomial in Delta{e,f} (and each of its two product terms) depends only on
the isomorphism type of the restriction to {e,f} plus the monomial's
support, with {e,f} marked setwise and, for the y_g^2*y_h*y_i shape, g
marked as well.  The rows below enumerate all types that occur, keyed by
the named 4/5/6-point instances; `positive` is the coefficient in
M_e^f*M_f^e, `negative` the one in M_{ef}*M^{ef}.  The Ansatz coefficient
additionally depends on the ambient matroid (extra points can contribute
C(a)^2*D(a)^2 terms), so each row carries the full set of attainable
values, tagged by a case note.

Only the `tables` command loads this module, through
`certificate.table_coefficients`, so no other call compiles it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import GGHH, GGHI, GHIJ
from .catalog import canonical_form, enumerate_simple_rank3, named
from .certificate import _four_p_terms, _squares
from .matroid import Matroid, line_masks
from .poly import _SHAPE_EXPONENTS, pack_shape, shape_text
from .rayleigh import _DELTA, _products, _split

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
    """One family's table check; it renders itself as `tables` prints it."""

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

    def to_json_dict(self) -> dict:
        """The family's entry in the `tables --format json` report."""
        return {
            "family": self.family,
            "shape": shape_text(self.family),
            "rows": [
                {
                    "label": r.row.label,
                    "instance": r.row.instance,
                    "expected": {
                        "positive": r.row.positive,
                        "negative": r.row.negative,
                        "delta": r.row.delta,
                        "ansatz_allowed": [str(v) for v in r.row.p_allowed],
                        "note": r.row.note,
                    },
                    "computed": {
                        "positive": r.positive,
                        "negative": r.negative,
                        "delta": r.delta,
                        "ansatz": str(r.p_value),
                    },
                    "match": r.ok,
                }
                for r in self.rows
            ],
            "scan": {
                "occurrences": self.scan_occurrences,
                "rows": [
                    {
                        "label": r.row.label,
                        "occurrences": r.occurrences,
                        "ansatz_observed": [str(v) for v in r.p_observed],
                    }
                    for r in self.rows
                ],
                "unmatched": list(self.unmatched),
                "mismatches": list(self.mismatches),
                "uncovered": list(self.uncovered),
            },
            "all_match": self.all_match,
        }

    def text_lines(self) -> list[str]:
        """The family's block of the `tables` text report, line by line."""
        lines = [
            f"monomial shape {shape_text(self.family)}",
            f"  {'row':<12} {'expected':<10} {'computed':<10} "
            f"{'ansatz allowed':<16} {'ansatz':<8} result",
        ]
        for r in self.rows:
            expected = f"{r.row.positive}-{r.row.negative}={r.row.delta}"
            computed = f"{r.positive}-{r.negative}={r.delta}"
            allowed = ",".join(str(v) for v in r.row.p_allowed)
            result = "MATCH" if r.ok else "MISMATCH"
            lines.append(
                f"  {r.row.label:<12} {expected:<10} {computed:<10} "
                f"{allowed:<16} {str(r.p_value):<8} {result}"
            )
        problems = self.unmatched + self.mismatches + self.uncovered
        lines.append(
            f"  scan: {self.scan_occurrences} monomial occurrences over the "
            f"n<=6 catalog and bowtie7; classification "
            f"{'INCOMPLETE' if problems else 'complete'}"
        )
        lines += [f"    problem: {line}" for line in problems]
        return lines


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


@lru_cache(maxsize=256)
def _pair_terms(m: Matroid, e: int, f: int) -> tuple[dict[int, int], ...]:
    """(M_e^f * M_f^e, -M_{ef} * M^{ef}, 4P) as packed terms, for the pair
    at positions e, f: each product of the `_DELTA` table on its own, read
    off the pair's `_split`, then 4P.

    Memoised, so the three families of one `tables` run share each pair's
    terms; the scan's 117 closed pairs and the rows' own pairs fit in the
    bound.  Callers only read the dicts.
    """
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
    out = []
    for n in (4, 5, 6):
        for idx, cls in enumerate(enumerate_simple_rank3(n).classes):
            out.append((f"n={n} class {idx}", cls))
    out.append(("bowtie7", named("bowtie7")))
    return out


def table_report(shape_family: str) -> TableReport:
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

    own = []  # per row: its coefficients on its own instance
    row_of: dict[tuple, int] = {}  # canonical form -> index of its row
    for i, row in enumerate(rows):
        inst = named(row.instance)
        index = inst._index
        others = [x for x in inst.elements if x not in row.pair]
        support = sorted(others, key=lambda x: x != row.g)  # a squared g first
        positions = tuple(index[x] for x in support)
        e, f = index[row.pair[0]], index[row.pair[1]]
        own.append(_coefficients(
            _pair_terms(inst, e, f), pack_shape(shape_family, positions)
        ))
        key = _pinned_key(line_masks(inst), inst.n, e, f, positions, shape_family)
        if key in row_of:
            raise RuntimeError(f"ambiguous table rows: {rows[row_of[key]].label} "
                               f"and {row.label} share a canonical form")
        row_of[key] = i

    usage = [0] * len(rows)
    observed: list[set[Fraction]] = [set() for _ in rows]
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
                i = row_of.get(_pinned_key(lines, m.n, ie, jf, support, shape_family))
                if i is None:
                    unmatched.append(_where(pair, m, support, shape_family))
                    continue
                row = rows[i]
                usage[i] += 1
                cpos, cneg, pval = _coefficients(
                    terms, pack_shape(shape_family, support)
                )
                observed[i].add(pval)
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
    for row, used, seen in zip(rows, usage, observed):
        if not used:
            uncovered.append(f"row {row.label} never occurred in the scan")
        for value in row.p_allowed:
            if value not in seen:
                uncovered.append(
                    f"row {row.label}: ansatz value {value} never observed"
                )

    return TableReport(
        family=shape_family,
        rows=tuple(
            RowReport(row, *coeffs, used, tuple(sorted(seen)))
            for row, coeffs, used, seen in zip(rows, own, usage, observed)
        ),
        unmatched=tuple(unmatched),
        mismatches=tuple(mismatches),
        uncovered=tuple(uncovered),
    )
