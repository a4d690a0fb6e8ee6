"""Exact rational algebra: linear terms and multivariate polynomials.

Everything here is immutable and exact (ints and fractions.Fraction, no
floats anywhere).  Linear terms carry the Presburger atoms as well as the
bases of rectilinear pieces, weights and exponents of measure functions;
polynomials carry counting and summation results.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(q: Rat) -> str:
    """Render a rational as "a/b" in lowest terms (just "a" when b = 1)."""
    q = frac(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# int() alone would also take digit-group underscores and non-ASCII digits
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:\s*/\s*([+-]?[0-9]+))?\Z")


def parse_rational(text: str) -> Fraction:
    """"a/b" or "a" in ASCII digits as a Fraction; ValueError on bad text or
    a zero b."""
    text = text.strip()
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise ValueError(f"bad rational {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


VARIABLE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
RESERVED = {"E", "A", "true", "false"}
# internal names no formula can spell: the summation index @i and the
# generator coordinates @m<j> of rectilinear pieces
_PLACEHOLDER_RE = re.compile(r"@(?:i|m[0-9]+)\Z")


class MissingAssignmentError(KeyError):
    def __init__(self, variable: str):
        super().__init__(variable)
        self.variable = variable


def variable_name(name: str) -> str:
    """name when the formula grammar can spell it; ValueError otherwise."""
    if not VARIABLE_RE.match(name) or name in RESERVED:
        raise ValueError(f"bad variable name {name!r}")
    return name


def _exact(x: Rat) -> Rat:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Integral):
        return int(x)
    x = frac(x)
    return x.numerator if x.denominator == 1 else x


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in __slots__, in order, and sets them in its
    own __init__ with object.__setattr__; every other assignment or deletion
    raises AttributeError.  Two values are equal when they have the same
    class and equal fields, and a value hashes as its field tuple.  One
    getter per class, _fields, built once when the class is defined, reads
    that tuple for equality, hash, copy and pickle alike.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) > 1:
            fields = operator.attrgetter(*names)
        elif names:
            get = operator.attrgetter(names[0])
            fields = staticmethod(lambda value: (get(value),))
        else:
            fields = staticmethod(lambda value: ())
        # an attrgetter is no descriptor, so value._fields(value) reads it
        cls._fields = fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ bars
        return type(self), self._fields(self)


class HashSlot(Value):
    """Base of a value class that is compared and hashed often, such as an
    atom or a cell: equality first checks identity, and the hash is computed
    once and kept in _hash.  The slot sits here so that the subclass's own
    __slots__ still name exactly its fields."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        return other is self or Value.__eq__(self, other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self._fields(self))
            object.__setattr__(self, "_hash", value)
            return value


# ---------------------------------------------------------------------------
# the cache policy
#
# Every table the package keeps across calls is a module-level dict in the
# module that uses it, read through its module global, with a bound named
# beside it.  remember() is the one way into a table: it evicts the oldest
# entries first, so a table never holds more than its bound.  Each module
# names its tables to cache_tables, and clear_caches() empties them all.
# Only returned results are stored, never an exception.

_TABLES: list[tuple[dict, str]] = []  # (module namespace, table name)


def cache_tables(namespace: dict, *names: str) -> None:
    _TABLES.extend((namespace, name) for name in names)


def remember(table: dict, key, value, bound: int):
    """Store value under key in table and return value.  A full table first
    drops its oldest eighth at once: finding the oldest entry scans the
    slots that earlier deletions left at the front of the dict, so dropping
    one entry per insertion would scan a large table on every insertion."""
    if len(table) >= bound:
        drop = max(len(table) - bound + 1, bound // 8)
        for old in list(itertools.islice(table, drop)):
            del table[old]
    table[key] = value
    return value


def clear_caches() -> None:
    """Empty every table the package keeps across calls."""
    for namespace, name in _TABLES:
        namespace[name].clear()


class LinearTerm(Value):
    """Exact affine form  sum_i c_i * x_i + const  over named variables.

    Coefficients are ints, or Fractions where a division made them; an
    integral Fraction is always stored as an int.  Presburger atoms use terms
    with integer coefficients, so their arithmetic stays integer arithmetic;
    weights, level bounds and exponents may carry rational coefficients.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, Rat], ...], const: Rat):
        object.__setattr__(self, "coeffs", coeffs)  # sorted by name, no zero coefficients
        object.__setattr__(self, "const", const)

    @staticmethod
    def make(coeffs: Mapping[str, Rat] | None = None, const: Rat = 0) -> LinearTerm:
        items = []
        for name, c in sorted((coeffs or {}).items()):
            if not _PLACEHOLDER_RE.match(name):
                variable_name(name)
            c = _exact(c)
            if c != 0:
                items.append((name, c))
        return LinearTerm(tuple(items), _exact(const))

    @staticmethod
    def _of(coeffs: Mapping[str, Rat], const: Rat) -> LinearTerm:
        """Like make, for coefficients whose names are already checked."""
        items = tuple((n, _exact(c)) for n, c in sorted(coeffs.items()) if c != 0)
        return LinearTerm(items, _exact(const))

    @staticmethod
    def constant(c: Rat) -> LinearTerm:
        return LinearTerm((), _exact(c))

    @staticmethod
    def variable(name: str) -> LinearTerm:
        return LinearTerm.make({name: 1})

    def coeff(self, name: str) -> Rat:
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    def variables(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: LinearTerm | Rat) -> LinearTerm:
        if not isinstance(other, LinearTerm):
            return LinearTerm(self.coeffs, _exact(self.const + other))
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = d.get(n, 0) + c
        return LinearTerm._of(d, self.const + other.const)

    def __sub__(self, other: LinearTerm | Rat) -> LinearTerm:
        if not isinstance(other, LinearTerm):
            return LinearTerm(self.coeffs, _exact(self.const - other))
        return self + other.scale(-1)

    def scale(self, k: Rat) -> LinearTerm:
        if k == 0:
            return LinearTerm((), 0)
        if k == 1:
            return self
        return LinearTerm(tuple((n, _exact(c * k)) for n, c in self.coeffs), _exact(self.const * k))

    def drop(self, name: str) -> LinearTerm:
        return LinearTerm(tuple((n, c) for n, c in self.coeffs if n != name), self.const)

    def substitute(self, name: str, value: LinearTerm) -> LinearTerm:
        c = self.coeff(name)
        if c == 0:
            return self
        return self.drop(name) + value.scale(c)

    def evaluate(self, assignment: Mapping[str, Rat]) -> Rat:
        total = self.const
        for n, c in self.coeffs:
            if n not in assignment:
                raise MissingAssignmentError(n)
            v = assignment[n]
            total += c * (v if type(v) is int else _exact(v))
        return total

    def denominator_lcm(self) -> int:
        d = self.const.denominator
        for _, c in self.coeffs:
            d = math.lcm(d, c.denominator)
        return d

    def integer_term(self, scale: int = 1) -> LinearTerm:
        """scale * self, which must have integer coefficients; ValueError when
        scale leaves a denominator."""
        out = self.scale(scale)
        if out.denominator_lcm() != 1:
            raise ValueError(f"{scale}*({self}) does not clear to an integer term")
        return out

    def to_polynomial(self) -> Polynomial:
        # already canonical: the constant first, then the variables by name
        head = (((), self.const),) if self.const != 0 else ()
        return Polynomial(head + tuple((((n, 1),), c) for n, c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts = []
        for n, c in self.coeffs:
            if abs(c) == 1:
                body = n
            else:
                body = f"{abs(c)}*{n}"
            parts.append(("+" if c > 0 else "-", body))
        if self.const != 0:
            parts.append(("+" if self.const > 0 else "-", str(abs(self.const))))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


Monomial = tuple[tuple[str, int], ...]  # sorted by variable, exponents >= 1


class Polynomial(Value):
    """Multivariate polynomial with exact coefficients, canonical storage.

    Terms are sorted by total degree, then by monomial; no coefficient is
    zero, and, as in LinearTerm, an integral coefficient is stored as an int
    and every other one as a Fraction.  Sums, products and substitutions
    collect their terms in one dict, as combine does, and canonicalize it
    once; only this module builds a Polynomial from raw terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Monomial, Rat], ...]):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def combine(pairs: Iterable[tuple[Rat, Polynomial]]) -> Polynomial:
        """sum c * P over the (c, P) pairs, canonicalized once."""
        acc: dict[Monomial, Rat] = {}
        for c, poly in pairs:
            _accumulate(acc, c, (), poly)
        return _collect(acc)

    @staticmethod
    def make(terms: Mapping[Monomial, Rat]) -> Polynomial:
        """The polynomial of {monomial: coefficient}; a monomial may list its
        variables in any order and repeat them."""
        acc: dict[Monomial, Rat] = {}
        for mono, c in terms.items():
            merged: dict[str, int] = {}
            for n, e in mono:
                merged[n] = merged.get(n, 0) + e
            _accumulate(acc, c, tuple(sorted((n, e) for n, e in merged.items() if e)), _ONE)
        return _collect(acc)

    @staticmethod
    def constant(c: Rat) -> Polynomial:
        c = _exact(c)
        return Polynomial(((((), c)),) if c != 0 else ())

    @staticmethod
    def variable(name: str) -> Polynomial:
        return Polynomial(((((name, 1),), 1),))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m, _ in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        return max((e for m, _ in self.terms for n, e in m if n == name), default=0)

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial.combine(((1, self), (1, other)))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return Polynomial.combine(((1, self), (-1, other)))

    def __mul__(self, other: Polynomial) -> Polynomial:
        acc: dict[Monomial, Rat] = {}
        for m, c in self.terms:
            _accumulate(acc, c, m, other)
        return _collect(acc)

    def scale(self, k: Rat) -> Polynomial:
        k = _exact(k)
        if k == 0:
            return Polynomial(())
        if k == 1:
            return self
        return Polynomial(tuple((m, _exact(c * k)) for m, c in self.terms))

    def substitute_powers(self, name: str, powers: Sequence[Polynomial]) -> Polynomial:
        """self with each name^e replaced by powers[e], which must exist for
        every e up to degree_in(name)."""
        acc: dict[Monomial, Rat] = {}
        for m, c in self.terms:
            for i, (n, e) in enumerate(m):
                if n == name:
                    _accumulate(acc, c, m[:i] + m[i + 1:], powers[e])
                    break
            else:
                _accumulate(acc, c, m, powers[0])
        return _collect(acc)

    def substitute_affine(self, name: str, value: LinearTerm) -> Polynomial:
        """Replace a variable by an affine form, expanding powers."""
        degree = self.degree_in(name)
        if degree == 0:
            return self
        vp = value.to_polynomial()
        powers = [_ONE]
        for _ in range(degree):
            powers.append(powers[-1] * vp)
        return self.substitute_powers(name, powers)

    def evaluate(self, point: Mapping[str, Rat]) -> Fraction:
        total: Rat = 0
        for m, c in self.terms:
            val = c
            for n, e in m:
                val *= _exact(point[n]) ** e
            total += val
        return frac(total)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
            if not body:
                text = format_rational(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{format_rational(abs(c))}*{body}"
            parts.append(("+" if c > 0 else "-", text))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out


_ONE = Polynomial((((), 1),))


def _accumulate(acc: dict[Monomial, Rat], c: Rat, mono: Monomial, poly: Polynomial) -> None:
    """Add c * mono * poly into acc, a dict of canonical monomials whose
    values are ints and Fractions."""
    c = _exact(c)
    if c == 0:
        return
    unit = c == 1
    for m, a in poly.terms:
        if mono:
            m = _mono_mul(mono, m)
        if not unit:
            a = c * a
        # not acc.get(m, 0) + a: adding a Fraction to the int 0 is slow
        if m in acc:
            acc[m] += a
        else:
            acc[m] = a


def _collect(acc: dict[Monomial, Rat]) -> Polynomial:
    """The canonical Polynomial of an accumulated dict: zeros dropped, ints
    where integral, sorted once."""
    items = [(m, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
             for m, c in acc.items() if c]
    items.sort(key=_term_key)
    return Polynomial(tuple(items))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m2:
        return m1
    d = dict(m1)
    for n, e in m2:
        d[n] = d.get(n, 0) + e
    return tuple(sorted(d.items()))


def _term_key(term: tuple[Monomial, Rat]):
    # total degree first, then the monomial
    m = term[0]
    return (sum(e for _, e in m), m)


def crt(r1: int, m1: int, r2: int, m2: int, coeff: int = 1) -> tuple[int, int] | None:
    """The residue class (r, m), 0 <= r < m, of the integers x with
    x = r1 (mod m1) and coeff*x = r2 (mod m2), or None when there is none:
    the Chinese remainder theorem for moduli that need not be coprime, with
    a coefficient on the second congruence, so that r1 = 0, m1 = 1 solves
    that congruence alone."""
    # x = r1 + m1*t, so coeff*m1*t = r2 - coeff*r1 (mod m2)
    a = coeff * m1
    b = r2 - coeff * r1
    g = math.gcd(a, m2)
    if b % g:
        return None
    n = m2 // g
    t = (b // g) * pow(a // g, -1, n) % n
    return (r1 + m1 * t) % (m1 * n), m1 * n


# Every power of p the package builds goes through power_fraction, which
# refuses one above 2^LEVEL_BITS before building it: a larger power would
# take unbounded time and memory, and its coefficients would not print.  A
# coordinate's level L builds p^L, and a cell's levels p^(sum of L); measure
# checks both against the same bound first, with messages of their own.
LEVEL_BITS = 4096


def power_fraction(base: int, exponent: Rat) -> Fraction:
    """Exact base**exponent for integer exponents (exponent must be integral);
    ValueError when |exponent| * base.bit_length() exceeds LEVEL_BITS."""
    if exponent.denominator != 1:  # an int's denominator is 1
        raise ValueError(f"non-integer exponent {exponent} for exact power")
    n = exponent.numerator
    if abs(n) * base.bit_length() > LEVEL_BITS:
        raise ValueError(f"power {base}^{n} has an exponent beyond "
                         f"{LEVEL_BITS // base.bit_length()}, the bound for p = {base}")
    if n >= 0:
        return Fraction(base**n)
    return Fraction(1, base ** (-n))


def _faulhaber_rows(rows: tuple, max_degree: int) -> tuple[tuple[Rat, ...], ...]:
    """rows, the coefficient lists of F_0 to F_k, extended to F_max_degree
    by the telescoping identity (K+1)^{j+1} = sum_i C(j+1,i) F_i(K)."""
    out = list(rows)
    for j in range(len(out), max_degree + 1):
        acc: list[Rat] = [math.comb(j + 1, d) for d in range(j + 2)]
        for i in range(j):
            c = math.comb(j + 1, i)
            for d, coef in enumerate(out[i]):
                acc[d] -= c * coef
        out.append(tuple(_exact(Fraction(coef, j + 1)) for coef in acc))
    return tuple(out)


# F_0 to F_3, built once at import, in about 0.05 ms: the flat ranges of
# the count benchmark sum polynomials of degree 0 or 1 in their index, and
# each further degree about doubles the cost every CLI command pays
_FAULHABER = _faulhaber_rows((), 3)


def faulhaber(max_degree: int) -> tuple[tuple[Rat, ...], ...]:
    """F_j(K) = sum_{i=0}^{K} i^j for j = 0..max_degree, each a polynomial in
    K given by its coefficient list (low degree first)."""
    if max_degree < len(_FAULHABER):
        return _FAULHABER[:max_degree + 1]
    return _faulhaber_rows(_FAULHABER, max_degree)


def bounded_power_sums(q: Fraction, max_degree: int) -> list[tuple[Fraction, list[Fraction]]]:
    """Closed forms for S_j(K) = sum_{i=0}^{K} i^j q^i with q != 1.

    Returns, for each j, a pair (A_j, B_j) with S_j(K) = A_j + q^{K+1} * B_j(K),
    where B_j is a polynomial in K given by its coefficient list (low degree
    first).  The identity is algebraic in K and valid for every q != 1; for
    0 < q < 1 the head A_j is the ray sum sum_{i>=0} i^j q^i.
    """
    if q == 1:
        raise ValueError("q = 1 handled by faulhaber")
    one_minus = 1 - q
    results: list[tuple[Fraction, list[Fraction]]] = []
    for j in range(max_degree + 1):
        if j == 0:
            a = Fraction(1) / one_minus
            b = [Fraction(-1) / one_minus]
        else:
            a = Fraction(0)
            b = [Fraction(0)] * (j + 1)
            for i in range(j):
                c = math.comb(j, i)
                ai, bi = results[i]
                a += c * ai
                for d, coef in enumerate(bi):
                    b[d] += c * coef
            a = q * a / one_minus
            b = [q * coef / one_minus for coef in b]
            # subtract q^{K+1} (K+1)^j / (1-q): expand (K+1)^j in K
            for d in range(j + 1):
                b[d] -= Fraction(math.comb(j, d)) / one_minus
        results.append((a, b))
    return results
