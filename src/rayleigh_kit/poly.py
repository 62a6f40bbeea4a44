"""Exact sparse multivariate polynomials over named variables.

Coefficients are exact rationals (Python ints, or Fraction when a
denominator is genuinely needed).  Variables are string labels; the
canonical variable order is lexicographic on the labels.  Terms are kept
in a sparse map from monomial to coefficient with no zero entries, so
two equal polynomials always compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

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


def mono_degree(mono: Monomial) -> int:
    return sum(exp for _, exp in mono)


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        clean: dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _norm_coeff(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _from_clean(cls, terms: dict[Monomial, Coeff]) -> "Polynomial":
        """Wrap terms that are already normalised: no zero, no integral Fraction."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

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
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for mono in self._terms:
            for var, _ in mono:
                seen.add(var)
        return tuple(sorted(seen))

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(mono_degree(m) for m in self._terms)

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

    def __rsub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

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

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and substitution ---------------------------------------

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

    def substitute(self, mapping: Mapping[str, "Polynomial | Coeff"]) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        Variables absent from the mapping are left untouched.
        """
        subs = {v: _as_poly(p) for v, p in mapping.items()}
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for var, exp in mono:
                factor = subs.get(var)
                if factor is None:
                    factor = Polynomial.variable(var)
                term = term * factor**exp
            result = result + term
        return result

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


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
    return (-mono_degree(mono), tuple((var, -exp) for var, exp in mono))


# ---------------------------------------------------------------------------
# Packed monomials.
#
# The certificate's hot loops write a monomial over a matroid's ground set as
# one int holding a 4-bit exponent per ground-set position: position i sits at
# bits 4i..4i+3.  Multiplying two monomials is then adding two ints.  Those
# loops only form products of two bases (exponents <= 2) and squares of
# quadratics with exponents <= 2 (exponents <= 4), so a field never carries
# into the next one.  `Polynomial` stays the type everywhere else.

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


# Bit 0, bit 1 and bits 2-3 of every field, for all 64 ground-set positions.
_FIELD_LOW_BITS = sum(1 << PACKED_BITS * i for i in range(64))
_FIELD_BIT1 = _FIELD_LOW_BITS << 1
_FIELD_HIGH_BITS = _FIELD_LOW_BITS * 12


def is_packed_shape(key: int) -> bool:
    """True iff a packed monomial has degree 4 and no exponent above 2, the
    shapes `classify_shape` accepts."""
    ones = _FIELD_LOW_BITS
    # An exponent is at most 2 when bits 2 and 3 of its field are clear and
    # bits 0 and 1 are not both set; the degree then counts bit 1 twice.
    if key & _FIELD_HIGH_BITS or key & key >> 1 & ones:
        return False
    return (key & ones).bit_count() + 2 * (key & _FIELD_BIT1).bit_count() == 4


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
    ints or Fractions that are not integral; zero terms are dropped.  Each
    key is decoded once per label tuple, through a bounded table.
    """
    table = _monomial_table(tuple(labels))
    return Polynomial._from_clean(
        {table[key]: coeff for key, coeff in terms.items() if coeff}
    )


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
# Degree-4 monomial shapes.

GGHH = "GGHH"
GGHI = "GGHI"
GHIJ = "GHIJ"

_SHAPE_EXPONENTS = {GGHH: (2, 2), GGHI: (2, 1, 1), GHIJ: (1, 1, 1, 1)}


@dataclass(frozen=True)
class MonomialShape:
    """A degree-4 monomial classified by its exponent pattern.

    kind GGHH is y_g^2 y_h^2, GGHI is y_g^2 y_h y_i, GHIJ is
    y_g y_h y_i y_j; `support` lists the distinct variables positionally
    (for GGHI the first entry is the squared one).
    """

    kind: str
    support: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in _SHAPE_EXPONENTS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        pattern = _SHAPE_EXPONENTS[self.kind]
        if len(self.support) != len(pattern):
            raise ValueError(f"shape {self.kind} needs {len(pattern)} variables")
        if len(set(self.support)) != len(self.support):
            raise ValueError("shape support must be distinct variables")

    def monomial(self) -> Monomial:
        pattern = _SHAPE_EXPONENTS[self.kind]
        return _mono_from_exponents(
            {var: exp for var, exp in zip(self.support, pattern)}
        )


def classify_shape(mono: Monomial) -> MonomialShape | None:
    """Classify a degree-4 monomial with exponents <= 2, else None."""
    if mono_degree(mono) != 4 or any(exp > 2 for _, exp in mono):
        return None
    squared = tuple(sorted(var for var, exp in mono if exp == 2))
    linear = tuple(sorted(var for var, exp in mono if exp == 1))
    if len(squared) == 2:
        return MonomialShape(GGHH, squared)
    if len(squared) == 1:
        return MonomialShape(GGHI, squared + linear)
    return MonomialShape(GHIJ, linear)


def pack_shape(kind: str, positions: Iterable[int]) -> int:
    """The packed monomial (see `pack_mask`) of a shape whose support sits at
    these ground-set positions, listed as in `MonomialShape.support`."""
    pairs = zip(_SHAPE_EXPONENTS[kind], positions, strict=True)
    return sum(exp << PACKED_BITS * pos for exp, pos in pairs)


def coefficient_of_shape(p: Polynomial, shape: MonomialShape) -> Coeff:
    return p.term_map().get(shape.monomial(), 0)


# ---------------------------------------------------------------------------
# Text serialization.
#
# Format: terms in canonical order, each as `<signed coeff> * y_v1^a1 y_v2 ...`
# with `^a` omitted when a == 1 and the ` * ...` part omitted for the
# constant term.  Rationals render as p/q.  The zero polynomial is `0`.


def _format_coeff(c: Coeff) -> str:
    if isinstance(c, Fraction):
        sign = "+" if c > 0 else "-"
        return f"{sign}{abs(c.numerator)}/{c.denominator}"
    return f"{c:+d}"


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    chunks = []
    for mono, coeff in p.terms():
        piece = _format_coeff(coeff)
        if mono:
            vars_part = " ".join(
                f"y_{var}" if exp == 1 else f"y_{var}^{exp}" for var, exp in mono
            )
            piece += " * " + vars_part
        chunks.append(piece)
    return " ".join(chunks)


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
