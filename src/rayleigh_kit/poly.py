"""Exact sparse multivariate polynomials over named variables.

Coefficients are exact rationals (Python ints, or Fraction when a
denominator is genuinely needed).  Variables are string labels; the
canonical variable order is lexicographic on the labels.  Terms are kept
in a sparse map from monomial to coefficient with no zero entries, so
two equal polynomials always compare equal structurally.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

from . import GGHH, GGHI, GHIJ

Coeff = Union[int, Fraction]

# A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
# with all exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple


def _norm_coeff(c: Coeff) -> Coeff:
    """Collapse integral Fractions to plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _mono_from_exponents(exponents: Mapping[str, int]) -> Monomial:
    items = []
    for var, exp in exponents.items():
        if exp < 0:
            raise ValueError(f"negative exponent for {var!r}")
        if exp:
            items.append((str(var), int(exp)))
    items.sort()
    return tuple(items)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients.

    `_packed` is None, or the (packed terms, label tuple) that `from_packed`
    was given; then `_terms`, the monomial map, is decoded from them on its
    first read and kept.
    """

    __slots__ = ("_terms", "_packed")

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        clean: dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _norm_coeff(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_packed", None)

    def __getattr__(self, name):
        # Reached only for a slot that is unset: `_terms` of a packed
        # polynomial that nothing has read yet.
        if name != "_terms":
            raise AttributeError(name)
        packed, labels = self._packed
        table = _monomial_table(labels)
        terms = {table[key]: coeff for key, coeff in packed.items()}
        object.__setattr__(self, "_terms", terms)
        return terms

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # Copies and pickles rebuild through a constructor, as the slots
        # cannot be assigned; a packed polynomial stays packed.
        if self._packed is not None:
            return from_packed, self._packed
        return Polynomial, (self._terms,)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Coeff) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({((str(name), 1),): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: Coeff = 1) -> "Polynomial":
        return cls({_mono_from_exponents(exponents): coeff})

    @classmethod
    def sum_of_variables(cls, names: Iterable[str]) -> "Polynomial":
        """The linear polynomial sum(y_v for v in names)."""
        acc: dict[Monomial, Coeff] = {}
        for name in names:
            mono = ((str(name), 1),)
            acc[mono] = acc.get(mono, 0) + 1
        return cls(acc)

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:
        if self._packed is not None:
            return len(self._packed[0])
        return len(self._terms)

    def coefficient(self, exponents: Mapping[str, int]) -> Coeff:
        return self._terms.get(_mono_from_exponents(exponents), 0)

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        """Terms in canonical (graded-lex, descending) order."""
        for mono in sorted(self._terms, key=_term_sort_key):
            yield mono, self._terms[mono]

    def term_map(self) -> dict[Monomial, Coeff]:
        return dict(self._terms)

    # -- ring operations --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            mine, theirs = self._packed, other._packed
            if mine is not None and theirs is not None and mine[1] == theirs[1]:
                return mine[0] == theirs[0]  # one decode table: keys match iff monomials do
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    __hash__ = None  # mutable-dict backed; equality is structural

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc[mono] = acc.get(mono, 0) + coeff
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero()
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        # Accumulate products; distinct term pairs may land on the same
        # monomial and must be summed, not overwritten.
        acc: dict[Monomial, Coeff] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return Polynomial(acc)

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Mapping[str, Coeff]) -> Coeff:
        """Exact evaluation at a rational point.

        Every variable occurring in the polynomial must be assigned;
        a missing assignment raises ValueError.
        """
        total: Coeff = 0
        for mono, coeff in self._terms.items():
            value: Coeff = coeff
            for var, exp in mono:
                if var not in point:
                    raise ValueError(f"missing assignment for variable {var!r}")
                value *= point[var] ** exp
            total += value
        return _norm_coeff(total)

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


def _term_sort_key(mono: Monomial):
    # Graded lexicographic, descending: higher degree first, then the
    # lexicographically largest exponent pattern.  Variables compare by
    # label; an absent variable is a zero exponent.
    return (-sum(exp for _, exp in mono), tuple((var, -exp) for var, exp in mono))


# ---------------------------------------------------------------------------
# Packed monomials.
#
# The certificate's hot loops write a monomial over a matroid's ground set as
# one int holding a 4-bit exponent per ground-set position: position i sits at
# bits 4i..4i+3.  Multiplying two monomials is then adding two ints.  Those
# loops only form products of two bases (exponents <= 2) and squares of
# quadratics with exponents <= 2 (exponents <= 4), so a field never carries
# into the next one.  `Polynomial` is the boundary type: `from_packed` turns
# packed terms into one for text, JSON and the public API, which decodes its
# monomials only when they are read.

PACKED_BITS = 4

# _SPREAD[byte]: the byte's eight bits moved to the low bits of eight fields.
_SPREAD = tuple(
    sum((byte >> i & 1) << (PACKED_BITS * i) for i in range(8)) for byte in range(256)
)


def pack_mask(mask: int) -> int:
    """The packed monomial prod_{i in mask} y_i of a ground-set bitmask."""
    if mask < 256:
        return _SPREAD[mask]
    out = shift = 0
    while mask:
        out |= _SPREAD[mask & 255] << shift
        mask >>= 8
        shift += 8 * PACKED_BITS
    return out


@lru_cache(maxsize=8)
def packed_shapes(n: int) -> frozenset[int]:
    """Every packed monomial over n positions of degree 4 with no exponent
    above 2 (the shapes GGHH, GGHI and GHIJ): the sums of two products
    y_g*y_h, equal or not."""
    pairs = [pack_mask(1 << g | 1 << h) for g, h in combinations(range(n), 2)]
    return frozenset(p + q for p, q in combinations_with_replacement(pairs, 2))


def packed_variables(mask: int) -> list[int]:
    """The packed monomials y_i for i in a ground-set bitmask, in position order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(1 << PACKED_BITS * (low.bit_length() - 1))
        mask ^= low
    return out


def add_products(
    acc: dict[int, int], xs: Iterable[int], ys: Iterable[int], sign: int = 1
) -> dict[int, int]:
    """acc += sign * (sum of xs) * (sum of ys), all packed monomials; returns acc."""
    ys = list(ys)
    get = acc.get
    for x in xs:
        for y in ys:
            key = x + y
            acc[key] = get(key, 0) + sign
    return acc


def add_square(acc: dict[int, int], terms: Mapping[int, int]) -> dict[int, int]:
    """acc += (sum of the packed terms)^2; returns acc."""
    items = list(terms.items())
    for i, (k1, c1) in enumerate(items):
        acc[2 * k1] = acc.get(2 * k1, 0) + c1 * c1
        for k2, c2 in items[i + 1 :]:
            acc[k1 + k2] = acc.get(k1 + k2, 0) + 2 * c1 * c2
    return acc


class _MonomialTable(dict):
    """Packed key -> Monomial over one label tuple, decoded on first lookup."""

    __slots__ = ("_order",)

    def __init__(self, labels: tuple[str, ...]):
        super().__init__()
        self._order = sorted((label, PACKED_BITS * i) for i, label in enumerate(labels))

    def __missing__(self, key: int) -> Monomial:
        field = (1 << PACKED_BITS) - 1
        mono = self[key] = tuple(
            (label, x) for label, shift in self._order if (x := key >> shift & field)
        )
        return mono


@lru_cache(maxsize=32)
def _monomial_table(labels: tuple[str, ...]) -> _MonomialTable:
    """The decode table of one label tuple, shared by every `from_packed` call."""
    return _MonomialTable(labels)


def from_packed(terms: Mapping[int, Coeff], labels: Iterable[str]) -> Polynomial:
    """The Polynomial of packed terms whose position i is the variable labels[i].

    Variables are listed by label, which need not be ground-set order
    (in ``U_3_10`` the label "10" sorts before "2").  Coefficients must be
    ints or Fractions that are not integral; zero terms are dropped.  The
    result keeps the nonzero packed terms and the label tuple, and decodes
    no monomial until one is read: its length and its equality with another
    such polynomial over the same label tuple are read off the packed keys.
    A decode goes through the bounded table of the label tuple, which
    decodes each key once.
    """
    poly = object.__new__(Polynomial)
    packed = {key: coeff for key, coeff in terms.items() if coeff}
    object.__setattr__(poly, "_packed", (packed, tuple(labels)))
    return poly


# ---------------------------------------------------------------------------
# The coefficientwise order.


def dominates(p: Polynomial, q: Polynomial) -> bool:
    """True iff every coefficient of p - q is nonnegative."""
    p = _as_poly(p)
    q = _as_poly(q)
    diff = p - q
    return all(c >= 0 for _, c in diff.term_map().items())


# ---------------------------------------------------------------------------
# Exponent reflection (degree-complement within a scope).


def reciprocal_transform(p: Polynomial, scope: Iterable[str], cap: int) -> Polynomial:
    """Replace each monomial exponent e_v by cap - e_v for every v in scope.

    This realizes y^(cap*scope) * p(1/y) cleared to a polynomial, without
    any division: the caller supplies the exponent cap explicitly.  Every
    term of p must involve only scope variables, with exponents <= cap;
    otherwise the polynomial is not reflectable and ValueError is raised.
    Applying the transform twice with the same scope and cap is the
    identity.
    """
    scope_vars = sorted(set(str(v) for v in scope))
    scope_set = set(scope_vars)
    acc: dict[Monomial, Coeff] = {}
    for mono, coeff in p.term_map().items():
        exps = dict(mono)
        for var in exps:
            if var not in scope_set:
                raise ValueError(f"not reflectable: variable {var!r} outside scope")
        reflected = {}
        for var in scope_vars:
            e = exps.get(var, 0)
            if e > cap:
                raise ValueError(f"not reflectable: exponent {e} of {var!r} exceeds cap {cap}")
            if cap - e:
                reflected[var] = cap - e
        acc[_mono_from_exponents(reflected)] = coeff
    return Polynomial(acc)


# ---------------------------------------------------------------------------
# Degree-4 monomial shapes: GGHH is y_g^2 y_h^2, GGHI is y_g^2 y_h y_i and
# GHIJ is y_g y_h y_i y_j.  A shape's support lists its distinct variables in
# the order of its exponents, so the squared ones come first.  The names
# themselves live in the package init; everything else about a shape (its
# text, the supports the table scan visits, the cells it pins) is derived
# from this table.

_SHAPE_EXPONENTS = {GGHH: (2, 2), GGHI: (2, 1, 1), GHIJ: (1, 1, 1, 1)}


def pack_shape(kind: str, positions: Iterable[int]) -> int:
    """The packed monomial (see `pack_mask`) of a shape whose support sits at
    these ground-set positions, listed in the order of the shape's exponents."""
    pairs = zip(_SHAPE_EXPONENTS[kind], positions, strict=True)
    return sum(exp << PACKED_BITS * pos for exp, pos in pairs)


def shape_text(kind: str) -> str:
    """A shape written over the variables g, h, i, j: `y_g^2 y_h y_i`."""
    exps = zip("ghij", _SHAPE_EXPONENTS[kind])
    return " ".join(f"y_{var}^{exp}" if exp > 1 else f"y_{var}" for var, exp in exps)


# ---------------------------------------------------------------------------
# Text serialization.
#
# Format: terms in canonical order, each as `<signed coeff> * y_v1^a1 y_v2 ...`
# with `^a` omitted when a == 1 and the ` * ...` part omitted for the
# constant term.  Rationals render as p/q.  The zero polynomial is `0`.


def _coeff_text(num: int, den: int) -> str:
    """The text of the rational num/den (den > 0): `+3`, `-1/2`."""
    if den == 1:
        return f"{num:+d}"
    g = gcd(num, den)
    return f"{num // g:+d}" if g == den else f"{num // g:+d}/{den // g}"


@lru_cache(maxsize=1 << 16)
def _monomial_text(mono: Monomial) -> tuple[tuple, str]:
    """A monomial's `_term_sort_key` and its text (` * y_3^2 y_4`, empty for
    the constant), each built once per distinct monomial."""
    text = " ".join(f"y_{var}" if exp == 1 else f"y_{var}^{exp}" for var, exp in mono)
    return _term_sort_key(mono), " * " + text if mono else ""


def _join_terms(terms: Iterable[tuple[Monomial, str]]) -> str:
    """The text of (monomial, coefficient text) pairs, none with a zero
    coefficient, in canonical order; `0` when there are none."""
    rendered = sorted((_monomial_text(mono), coeff) for mono, coeff in terms)
    return " ".join([coeff + text for (_, text), coeff in rendered]) or "0"


def format_polynomial(p: Polynomial) -> str:
    return _join_terms(
        (mono, f"{c:+d}" if type(c) is int else _coeff_text(c.numerator, c.denominator))
        for mono, c in p._terms.items()
    )


def format_packed(terms: Mapping[int, int], labels: Iterable[str], den: int = 1) -> str:
    """The text of the packed terms, each coefficient divided by `den`, with
    position i the variable labels[i]: `format_polynomial` of the matching
    `from_packed` result, built without it and without a Fraction."""
    table = _monomial_table(tuple(labels))
    return _join_terms(
        (table[key], _coeff_text(coeff, den)) for key, coeff in terms.items() if coeff
    )


def parse_polynomial(text: str) -> Polynomial:
    """Inverse of format_polynomial (accepts any term order)."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    tokens = text.split()
    acc: dict[Monomial, Coeff] = {}
    i = 0
    while i < len(tokens):
        coeff = _parse_coeff(tokens[i])
        i += 1
        exponents: dict[str, int] = {}
        if i < len(tokens) and tokens[i] == "*":
            i += 1
            saw_var = False
            while i < len(tokens) and tokens[i].startswith("y_"):
                var, exp = _parse_var(tokens[i])
                exponents[var] = exponents.get(var, 0) + exp
                saw_var = True
                i += 1
            if not saw_var:
                raise ValueError("expected variables after '*'")
        mono = _mono_from_exponents(exponents)
        acc[mono] = acc.get(mono, 0) + coeff
    return Polynomial(acc)


def _parse_coeff(token: str) -> Coeff:
    if not token or token[0] not in "+-":
        raise ValueError(f"expected signed coefficient, got {token!r}")
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient {token!r}") from exc


def _parse_var(token: str) -> tuple[str, int]:
    body = token[2:]
    if "^" in body:
        var, _, exp_text = body.rpartition("^")
        try:
            exp = int(exp_text)
        except ValueError as exc:
            raise ValueError(f"bad exponent in {token!r}") from exc
    else:
        var, exp = body, 1
    if not var or exp < 1:
        raise ValueError(f"bad variable token {token!r}")
    return var, exp
