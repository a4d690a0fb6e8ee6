"""Exact p-adic arithmetic and closed-form measures of box cells.

A box cell fixes, per coordinate, a center, an angular-component condition at
some level, and couples the valuation vector through a Presburger condition;
its Haar measure is a weighted Presburger sum.  This module turns cells into
such sums, evaluates the sums in closed form as guarded exponential
polynomials over the parameters, and decides identical vanishing of those
exponential polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .algebra import (
    LEVEL_BITS,
    HashSlot,
    LinearTerm,
    Polynomial,
    Value,
    cache_tables,
    frac,
    power_fraction,
    remember,
)
from .presburger import (
    Atom,
    Formula,
    atoms_satisfiable,
    conj,
    divides,
    evaluate_qf,
    free_variables,
    simplify_conjunction,
)
from .semilinear import (
    DivergesError,
    GuardedCell,
    InputError,
    OutOfDomainError,
    Tower,
    base_value,
    disjoint_conjunctions,
    rectilinearize,
    refine,
    subtract,
    sum_over_tower,
    to_cells,
    towers_in_domain,
)

Guard = tuple[Atom, ...]

INFINITY = float("inf")


class ZeroInputError(ValueError):
    pass


# Miller-Rabin with these twelve bases decides primality exactly for every
# n < 3.3 * 10^24 (Sorenson and Webster, 2015), so below PRIME_BOUND.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_BOUND."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PAdicContext(Value):
    """The residue characteristic; Haar measure is normalized so that the
    n-fold product of the valuation ring has measure 1."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ValueError(f"p must be a prime below 2^64, got {p}")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        object.__setattr__(self, "p", p)


def valuation(q: Union[int, Fraction], ctx: PAdicContext):
    """Exact p-adic valuation; +inf for zero."""
    q = frac(q)
    if q == 0:
        return INFINITY
    p = ctx.p
    v = 0
    num = q.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ac_level(q: Union[int, Fraction], level: int, ctx: PAdicContext) -> int:
    """Unit part of q modulo p^level (the level-wise angular component)."""
    q = frac(q)
    if q == 0:
        raise ZeroInputError("angular component of zero is undefined")
    if level < 1:
        raise ValueError("level must be >= 1")
    p = ctx.p
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    mod = power_fraction(p, level).numerator
    return (num * pow(den, -1, mod)) % mod


# ---------------------------------------------------------------------------
# weights and box cells


class Weight(Value):
    """nu(s, lambda) = (c(s) + sum_i b_i * lambda_i) / r, integer-valued on its
    attached domain."""

    __slots__ = ("r", "c", "b")

    def __init__(self, r: int, c: LinearTerm, b: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)  # over the parameters
        object.__setattr__(self, "b", b)  # per lambda variable, sorted by name

    @staticmethod
    def make(r: int, c: LinearTerm, b: Mapping[str, int] | None = None) -> Weight:
        if r < 1:
            raise InputError("weight denominator r must be >= 1")
        for n, v in (b or {}).items():
            if v != int(v):
                raise InputError(f"weight entry {v} for {n} is not an integer")
        return Weight(r, c, tuple(sorted((n, int(v)) for n, v in (b or {}).items() if v != 0)))

    @staticmethod
    def constant(value: int) -> Weight:
        return Weight(1, LinearTerm.constant(value), ())

    def affine(self) -> LinearTerm:
        return (self.c + LinearTerm.make(dict(self.b))).scale(Fraction(1, self.r))


class Coordinate(Value):
    """Non-degenerate coordinate: center + { y : ac_level(y) = ac, v(y) free }."""

    __slots__ = ("center", "level", "ac")

    def __init__(self, center: Fraction, level: int, ac: int):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "ac", ac)

    def validate(self, ctx: PAdicContext) -> None:
        if self.level < 1:
            raise InputError("coordinate level must be >= 1")
        if self.level * ctx.p.bit_length() > LEVEL_BITS:
            raise InputError(f"coordinate level {self.level} is above "
                             f"{LEVEL_BITS // ctx.p.bit_length()}, the bound for p = {ctx.p}")
        mod = power_fraction(ctx.p, self.level).numerator
        if not (0 <= self.ac < mod) or self.ac % ctx.p == 0:
            raise InputError(f"ac value {self.ac} is not a unit modulo {mod}")


class DegenerateCoordinate(Value):
    """Coordinate pinned to a single point x_i = point (dimension drop)."""

    __slots__ = ("point",)

    def __init__(self, point: Fraction):
        object.__setattr__(self, "point", point)


class BoxCell(HashSlot):
    """Product-like cell: per-coordinate angular conditions plus a joint
    Presburger condition on the valuation tuple.

    lambda_vars names the valuation variables of the non-degenerate
    coordinates, in coordinate order; lambda_formula may also mention
    parameters.  The optional weight adds p^nu to the natural cell volume.
    A HashSlot, since cells are dict keys on every measure, replay and
    document path: the hash, which covers the whole formula tree, is
    computed once.
    """

    __slots__ = ("coords", "lambda_vars", "lambda_formula", "weight")

    def __init__(self, coords: tuple[Union[Coordinate, DegenerateCoordinate], ...],
                 lambda_vars: tuple[str, ...], lambda_formula: Formula,
                 weight: Weight | None = None):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "lambda_vars", lambda_vars)
        object.__setattr__(self, "lambda_formula", lambda_formula)
        object.__setattr__(self, "weight", weight)

    def validate(self, ctx: PAdicContext) -> None:
        live = [c for c in self.coords if isinstance(c, Coordinate)]
        if len(live) != len(self.lambda_vars):
            raise InputError("lambda_vars must match the non-degenerate coordinates")
        for c in live:
            c.validate(ctx)
        total = sum(c.level for c in live)
        if total * ctx.p.bit_length() > LEVEL_BITS:
            raise InputError(f"coordinate levels sum to {total}, above "
                             f"{LEVEL_BITS // ctx.p.bit_length()}, the bound for p = {ctx.p}")
        if self.weight is not None:
            extra = {n for n, _ in self.weight.b} - set(self.lambda_vars)
            if extra:
                raise InputError(f"weight references unknown variables {sorted(extra)}")

    def param_variables(self) -> tuple[str, ...]:
        out = set(free_variables(self.lambda_formula)) - set(self.lambda_vars)
        if self.weight is not None:
            out |= set(self.weight.c.variables())
        return tuple(sorted(out))


class MeasureZero:
    """Returned for cells that are negligible (some coordinate is a point)."""

    def __repr__(self) -> str:
        return "MeasureZero"


MEASURE_ZERO = MeasureZero()


def cell_to_weighted_sum(cell: BoxCell, ctx: PAdicContext):
    """Rewrite the cell measure as sum over Lambda of p^w.

    Returns (lambda_formula, w) with w folding the per-coordinate volumes
    p^(-lambda_i - level_i) into the cell's optional weight, or MEASURE_ZERO
    when a coordinate is degenerate.  w.b lists every lambda variable of the
    cell, zero entries included, so a variable the formula leaves free is
    still summed.  Integrality of w is checked later, on the parameter
    domain, by checked_towers.
    """
    cell.validate(ctx)
    if any(isinstance(c, DegenerateCoordinate) for c in cell.coords):
        return MEASURE_ZERO
    base = cell.weight if cell.weight is not None else Weight.constant(0)
    level_sum = sum(c.level for c in cell.coords if isinstance(c, Coordinate))
    r = base.r
    b = {n: v for n, v in base.b}
    for name in cell.lambda_vars:
        b[name] = b.get(name, 0) - r
    return cell.lambda_formula, Weight(r, base.c - r * level_sum, tuple(sorted(b.items())))


def lambda_vars_of(lam: Formula, weight: Weight, param_vars: Sequence[str]) -> tuple[str, ...]:
    names = set(free_variables(lam)) - set(param_vars)
    names |= {n for n, _ in weight.b}
    return tuple(sorted(names))


def checked_towers(
    cells: Iterable[GuardedCell],
    wform: LinearTerm,
    domain: Sequence[list[Atom]],
) -> Iterator[tuple[Tower, list[list[Atom]]]]:
    """The towers of the cells that meet the domain pieces, with their guards
    (as towers_in_domain), each yielded once the weight is an integer at the
    tower's base point on its guards; InputError otherwise.  The walkers
    test the levels' increments (semilinear.level_increment)."""
    for tower, guards in towers_in_domain(cells, domain):
        base = base_value(tower, wform)
        for guard in guards:
            _require_integral_on(base, guard)
        yield tower, guards


def _require_integral_on(form: LinearTerm, guard: list[Atom]) -> None:
    """InputError "weight value <form> is not an integer on its guard" unless
    form takes integer values on the guard; the text is built only to raise."""
    den = form.denominator_lcm()
    if den > 1 and subtract(guard, [divides(den, form.integer_term(den))]):
        raise InputError(f"weight value {form} is not an integer on its guard")


# ---------------------------------------------------------------------------
# exponential polynomials


class ExpTerm(Value):
    """On guard: poly(s) * p^(exponent(s)); the exponent is integer-valued on
    the guard (its coefficients may be rational).  The guard is an atom tuple
    from simplify_conjunction; conj(guard) prints it."""

    __slots__ = ("guard", "poly", "exponent")

    def __init__(self, guard: Guard, poly: Polynomial, exponent: LinearTerm):
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "exponent", exponent)


class ExpPolynomial(Value):
    """Canonical guarded sum of exponential-polynomial terms.

    Guards of distinct terms are pairwise disjoint regions; within a region
    terms are merged by exponent class and sorted; value at a point is the sum
    over the terms whose guard holds (zero when the term list is empty).
    """

    __slots__ = ("p", "param_vars", "terms")

    def __init__(self, p: int, param_vars: tuple[str, ...], terms: tuple[ExpTerm, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "param_vars", param_vars)
        object.__setattr__(self, "terms", terms)


def _exponent_key(exponent: LinearTerm):
    fractional = exponent.const - int(exponent.const // 1)
    return (exponent.coeffs, fractional)


def make_exp_polynomial(
    p: int,
    param_vars: Sequence[str],
    raw_terms: Iterable[tuple[Guard | Formula, Polynomial, LinearTerm]],
) -> ExpPolynomial:
    """Canonicalize raw (guard, poly, exponent) triples.

    A guard is a canonical atom tuple, as in ExpTerm, or a quantifier-free
    Formula, which is cut into disjoint conjunctions of atoms here, once.
    These pieces are refined into disjoint regions, starting from the whole
    parameter space.  Each distinct guard is refined once, in the order of its
    first term with a nonzero polynomial, and adds all of its terms to the
    regions inside it: refining again by a guard already applied changes no
    region, so the regions are those of refining term by term.  Within a
    region, terms whose exponents differ by an integer constant are merged
    (the integer power of p moves into the polynomial), zero polynomials are
    dropped, and terms are sorted by exponent; regions by printed guard.
    Terms under one atom-tuple guard make that one region when the guard is
    satisfiable, and none otherwise, with no refinement.
    """
    by_guard: dict = {}
    for guard, poly, exponent in raw_terms:
        if not poly.is_zero():
            by_guard.setdefault(guard, []).append((poly, exponent))
    regions: list[tuple[list[Atom], list[tuple[Polynomial, LinearTerm]]]] = [([], [])]
    if len(by_guard) == 1 and not isinstance(next(iter(by_guard)), Formula):
        # refining the whole space by one atom tuple leaves its complement
        # pieces without terms: the guard is the one region, if it has a point
        (guard, pairs), = by_guard.items()
        regions = [(list(guard), pairs)] if atoms_satisfiable(guard) else []
    else:
        for guard, pairs in by_guard.items():
            pieces = disjoint_conjunctions(guard) if isinstance(guard, Formula) else [guard]
            for piece in pieces:
                regions = refine(regions, piece, lambda acc: acc + pairs)

    printed: list[tuple[str, list[ExpTerm]]] = []
    for atoms, acc in regions:
        if not acc:
            continue
        region = simplify_conjunction(atoms)
        # each class goes to its canonical representative, the exponent with
        # fractional constant in [0, 1); the integer shift scales the poly
        merged: dict = {}
        for poly, exponent in acc:
            shift = math.floor(exponent.const)
            rep = exponent - shift
            _, pairs = merged.setdefault(_exponent_key(rep), (rep, []))
            pairs.append((power_fraction(p, shift), poly))
        terms = []
        for key in sorted(merged):
            exponent, pairs = merged[key]
            poly = Polynomial.combine(pairs)
            if not poly.is_zero():
                terms.append(ExpTerm(region, poly, exponent))
        if terms:
            printed.append((str(conj(region)), terms))
    # distinct regions are disjoint, so no two print alike
    printed.sort(key=lambda item: item[0])
    return ExpPolynomial(p, tuple(param_vars), tuple(t for _, terms in printed for t in terms))


def exp_poly_eval(e: ExpPolynomial, point: Mapping[str, int]) -> Fraction:
    """Exact value at an integer parameter point, with e's own prime;
    OutOfDomainError when the point lies in no guard."""
    hit = False
    total = Fraction(0)
    for term in e.terms:
        if all(a.evaluate(point) for a in term.guard):
            hit = True
            exponent = term.exponent.evaluate(point)
            if exponent.denominator != 1:
                raise InputError(f"non-integer exponent {exponent} at {dict(point)}")
            total += term.poly.evaluate(point) * power_fraction(e.p, exponent)
    if not hit:
        raise OutOfDomainError(f"{dict(point)} lies in no guard")
    return total


class NonZeroWitness(Value):
    __slots__ = ("point", "value")

    def __init__(self, point: tuple[tuple[str, int], ...], value: Fraction):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "value", value)

    def as_dict(self) -> dict[str, int]:
        return dict(self.point)


def exp_poly_is_zero(e: ExpPolynomial, param_domain: Formula) -> NonZeroWitness | None:
    """None when e vanishes at every integer point of param_domain; otherwise
    a concrete witness point with its nonzero exact value."""
    by_region: dict[Guard, list[ExpTerm]] = {}
    for term in e.terms:
        by_region.setdefault(term.guard, []).append(term)
    domain_pieces = disjoint_conjunctions(param_domain)
    for region, terms in by_region.items():
        for piece in domain_pieces:
            atoms = simplify_conjunction(region + tuple(piece))
            if atoms is None or not atoms_satisfiable(atoms):
                continue  # the region misses this piece of the domain
            svars = tuple(sorted(set(e.param_vars).union(*(a.term.variables() for a in atoms))))
            for forms in rectilinearize([GuardedCell(svars, atoms, ())]):
                witness = _piece_witness(forms, terms, e.p)
                if witness is not None:
                    return witness
    return None


def _piece_witness(forms: Mapping[str, LinearTerm], terms, p: int) -> NonZeroWitness | None:
    # the cells have no parameters, so the forms are over @m0, ..., @m<m-1> only
    m = len({name for form in forms.values() for name in form.variables()})
    mu_vars = [f"@m{j}" for j in range(m)]

    grouped: dict = {}
    for t in terms:
        exponent = t.exponent
        poly = t.poly
        for var, form in forms.items():
            exponent = exponent.substitute(var, form)
            poly = poly.substitute_affine(var, form)
        coeffs = dict(exponent.coeffs)
        const = exponent.const
        if const.denominator != 1 or any(v.denominator != 1 for v in coeffs.values()):
            raise AssertionError("exponent not integral on rectilinear piece")
        key = tuple(sorted((k, v) for k, v in coeffs.items()))
        grouped.setdefault(key, []).append((power_fraction(p, const), poly))

    grouped = {k: Polynomial.combine(pairs) for k, pairs in grouped.items()}
    grouped = {k: v for k, v in grouped.items() if not v.is_zero()}
    if not grouped:
        return None

    def value_at(mu: tuple[int, ...]) -> Fraction:
        env = {mu_vars[j]: mu[j] for j in range(m)}
        total = Fraction(0)
        for key, poly in grouped.items():
            exponent = sum((c * env[n] for n, c in key), Fraction(0))
            total += poly.evaluate(env) * power_fraction(p, exponent)
        return total

    # A nonzero sum of terms P_k(x) b_k^x with distinct bases b_k > 0 has at
    # most T - 1 real zeros, T = sum_k (deg P_k + 1) (Polya and Szego, Part V,
    # Problem 75).  By induction on the coordinates (fix the first m - 1 where
    # some coefficient in the last one is nonzero), the box [0, T - 1]^m holds
    # a witness, so a scan by coordinate sum up to m * (T - 1) finds one.
    bound = sum(v.degree() + 1 for v in grouped.values()) - 1
    for total in range(m * bound + 1):
        for mu in _compositions(total, m):
            val = value_at(mu)
            if val != 0:
                env = {mu_vars[j]: mu[j] for j in range(m)}
                point = tuple((var, int(forms[var].evaluate(env))) for var in sorted(forms))
                return NonZeroWitness(point, val)
    raise AssertionError("nonzero exponential polynomial vanishes on its witness box")


def _compositions(total: int, parts: int):
    """The tuples of parts naturals with sum total, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# closed-form summation

# Closed forms by sum_closed_form's arguments, which a cell's centers and
# angular components do not reach.  Only returned results are kept, so a
# cell that raises raises on every call.
_CLOSED_FORMS: dict = {}
CLOSED_FORMS_BOUND = 256
cache_tables(globals(), "_CLOSED_FORMS")


def sum_closed_form(
    lam: Formula,
    weight: Weight,
    param_domain: Formula,
    ctx: PAdicContext,
    param_vars: Sequence[str],
) -> ExpPolynomial:
    """Closed form of  s -> sum over the fiber of Lambda at s of p^weight.

    The summed variables are those of lam outside param_vars and those named
    in weight.b.  Raises InputError when the weight is not integer-valued
    on the solution set over the parameter domain, by the one rule of
    semilinear.level_increment, and then DivergesError when a direction
    with nonnegative exponent increment is unbounded.
    """
    key = (lam, weight, param_domain, ctx.p, tuple(param_vars))
    if (cached := _CLOSED_FORMS.get(key)) is not None:
        return cached
    lambda_vars = lambda_vars_of(lam, weight, param_vars)
    wform = weight.affine()
    domain = disjoint_conjunctions(param_domain)
    raw_terms: list[tuple[Guard, Polynomial, LinearTerm]] = []
    for tower, guards in checked_towers(to_cells(lam, lambda_vars, param_vars), wform, domain):
        terms = sum_over_tower(tower, wform, ctx.p)
        for guard in guards:
            canonical = simplify_conjunction(guard)
            raw_terms.extend((canonical, t.poly, t.exponent) for t in terms)
    result = make_exp_polynomial(ctx.p, param_vars, raw_terms)
    return remember(_CLOSED_FORMS, key, result, CLOSED_FORMS_BOUND)


# ---------------------------------------------------------------------------
# measure functions


class MeasureFunction(Value):
    """An exponential polynomial together with its parameter domain; the
    exponential polynomial carries the prime and the parameters."""

    __slots__ = ("exp_poly", "param_domain")

    def __init__(self, exp_poly: ExpPolynomial, param_domain: Formula):
        object.__setattr__(self, "exp_poly", exp_poly)
        object.__setattr__(self, "param_domain", param_domain)

    def evaluate(self, point: Mapping[str, int]) -> Fraction:
        if not evaluate_qf(self.param_domain, point):
            raise OutOfDomainError(f"{dict(point)} violates the parameter domain")
        try:
            return exp_poly_eval(self.exp_poly, point)
        except OutOfDomainError:
            return Fraction(0)
