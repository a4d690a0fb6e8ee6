"""Semilinear machinery over the value group.

Quantifier-free Presburger formulas are decomposed into disjoint guarded
cells, cells are triangulated into "towers" (one resolved coordinate per
level: a point, an upward/downward arithmetic ray, or a bounded arithmetic
range), and towers drive everything downstream: exact parametric counting
(count_tower, on the power sums of each range's arithmetic progression),
rectilinearization into affine images of N^m, and the closed-form
summation engine used by the measure layer (sum_over_tower).

All splits are exact partitions and every guard ever produced is a
conjunction of integer atoms.  A branch whose new atom already simplifies to
FALSE (simplify_atom's gcd and constant normalization) is never built; each
remaining branch is checked by an integer-feasibility test on its atoms
(presburger.atoms_satisfiable), so outputs stay canonical.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .algebra import (
    LinearTerm,
    Polynomial,
    Rat,
    Value,
    bounded_power_sums,
    cache_tables,
    crt,
    faulhaber,
    power_fraction,
    remember,
)
from .presburger import (
    DIV,
    EQ0,
    GEQ0,
    Atom,
    ExpansionBudgetError,
    FalseF,
    Formula,
    NotF,
    NotQuantifierFreeError,
    OrF,
    TrueF,
    atoms_satisfiable,
    divides,
    divisibility_residue,
    eq0,
    free_variables,
    geq0,
    is_quantifier_free,
    nnf,
    simplify,
    simplify_atom,
    simplify_conjunction,
)

_IOTA = "@i"  # internal summation index; cannot clash with parsed names

V = TypeVar("V")


class InfiniteFiberError(Exception):
    def __init__(self, variable: str, direction: int):
        arrow = "+inf" if direction > 0 else "-inf"
        super().__init__(f"fiber is infinite along {variable} towards {arrow}")
        self.variable = variable
        self.direction = direction


class DivergesError(Exception):
    def __init__(self, variable: str, direction: int, generator: int | None = None):
        arrow = "+inf" if direction > 0 else "-inf"
        where = f" (generator {generator})" if generator is not None else ""
        super().__init__(f"measure diverges along {variable} towards {arrow}{where}")
        self.variable = variable
        self.direction = direction
        self.generator = generator


class NotRectilinearizableError(Exception):
    pass


class InputError(ValueError):
    """Ill-formed cell data, e.g. a weight that is not integer-valued."""


class OutOfDomainError(Exception):
    pass


# ---------------------------------------------------------------------------
# guarded cells


class GuardedCell(Value):
    """Conjunctive constraints over ordered lambda variables and parameters,
    and a guard over the parameters, both from simplify_conjunction.  The
    order of variables is the resolution order: triangulate resolves them
    last to first."""

    __slots__ = ("variables", "constraints", "param_guard")

    def __init__(self, variables: tuple[str, ...], constraints: tuple[Atom, ...],
                 param_guard: tuple[Atom, ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "param_guard", param_guard)

    def contains(self, lam: Mapping[str, int], params: Mapping[str, int]) -> bool:
        env = {**params, **lam}
        return all(a.evaluate(env) for a in self.constraints + self.param_guard)


def _dnf(f: Formula) -> list[list[Atom]]:
    """The disjuncts of a formula in NNF, each negated atom expanded into the
    disjoint pieces of its complement."""
    if isinstance(f, TrueF):
        return [[]]
    if isinstance(f, FalseF):
        return []
    if isinstance(f, Atom):
        return [[f]]
    if isinstance(f, NotF):
        return _complement_pieces(f.arg)  # nnf negates atoms only
    if isinstance(f, OrF):
        return [d for a in f.args for d in _dnf(a)]
    out = [[]]  # f is an AndF: nnf leaves no quantifier
    for a in f.args:
        branch = _dnf(a)
        out = [left + right for left in out for right in branch]
    return out


def _complement_pieces(atom: Atom) -> list[list[Atom]]:
    """Disjoint conjunctions covering the complement of one atom."""
    if atom.kind == GEQ0:
        return [[geq0(atom.term.scale(-1) - 1)]]
    if atom.kind == EQ0:
        return [[geq0(atom.term - 1)], [geq0(atom.term.scale(-1) - 1)]]
    return [[divides(atom.modulus, atom.term - r)] for r in range(1, atom.modulus)]


def subtract(disjunct: list[Atom], earlier: list[Atom]) -> list[list[Atom]]:
    """Split disjunct minus conj(earlier) into disjoint conjunctive pieces.
    A complement piece whose divisibility residue contradicts one the
    disjunct holds misses it, and is dropped without a feasibility query;
    so a divisibility whose residue the disjunct holds adds no piece."""
    residues = dict(filter(None, map(divisibility_residue, disjunct)))
    out = []
    prefix: list[Atom] = []
    for atom in earlier:
        held = divisibility_residue(atom) if residues else None
        if held and residues.get(held[0]) == held[1]:
            prefix.append(atom)
            continue
        for comp in _complement_pieces(atom):
            if _other_residue(comp, residues):
                continue
            cand = disjunct + prefix + comp
            if atoms_satisfiable(cand):
                out.append(cand)
        prefix.append(atom)
    return out


def disjoint_conjunctions(f: Formula) -> list[list[Atom]]:
    """Pairwise disjoint satisfiable conjunctions whose union is f, built
    afresh on every call: each disjunct of f's DNF minus the earlier ones."""
    disjuncts = [d for d in _dnf(nnf(simplify(f))) if atoms_satisfiable(d)]
    disjoint: list[list[Atom]] = []
    for i, d in enumerate(disjuncts):
        pieces = [d]
        for earlier in disjuncts[:i]:
            pieces = [q for piece in pieces for q in subtract(piece, earlier)]
        disjoint.extend(pieces)
    return disjoint


def refine(
    regions: Sequence[tuple[list[Atom], V]], guard: Sequence[Atom], update: Callable[[V], V]
) -> list[tuple[list[Atom], V]]:
    """Split disjoint conjunctive regions by a conjunctive guard.

    The part of a region inside the guard gets update(value); the part outside
    is cut into disjoint conjunctions by subtract and keeps the old value.  A
    region that misses the guard stays whole, and the output regions stay
    pairwise disjoint with the same union.  A region that holds a
    divisibility whose residue contradicts one of the guard's misses it
    without a feasibility query.
    """
    residues = dict(filter(None, map(divisibility_residue, guard)))
    out: list[tuple[list[Atom], V]] = []
    for atoms, value in regions:
        present = set(atoms)
        missing = [a for a in guard if a not in present]
        inside = atoms + missing
        if missing and (_other_residue(atoms, residues) or not atoms_satisfiable(inside)):
            out.append((atoms, value))
            continue
        out.append((inside, update(value)))
        out.extend((piece, value) for piece in subtract(atoms, missing))
    return out


def _other_residue(atoms: Iterable[Atom], residues: Mapping[tuple, int]) -> bool:
    """Whether one of the atoms is a divisibility whose residue differs from
    the one residues holds for its key (see divisibility_residue)."""
    if not residues:
        return False
    for atom in atoms:
        row = divisibility_residue(atom)
        if row is not None and residues.get(row[0], row[1]) != row[1]:
            return True
    return False


def to_cells(
    f: Formula, lambda_vars: Sequence[str], param_vars: Sequence[str]
) -> list[GuardedCell]:
    """Decompose a quantifier-free formula into disjoint guarded cells."""
    if not is_quantifier_free(f):
        raise NotQuantifierFreeError("to_cells needs a quantifier-free formula")
    allowed = set(lambda_vars) | set(param_vars)
    extra = free_variables(f) - allowed
    if extra:
        raise ValueError(f"free variables outside declared ones: {sorted(extra)}")

    lam = set(lambda_vars)
    cells = []
    for atoms in disjoint_conjunctions(f):
        cell_atoms, guard_atoms = [], []
        for a in atoms:
            (cell_atoms if set(a.term.variables()) & lam else guard_atoms).append(a)
        cells.append(GuardedCell(tuple(lambda_vars), simplify_conjunction(cell_atoms),
                                 simplify_conjunction(guard_atoms)))
    return cells


# ---------------------------------------------------------------------------
# towers


class Level(Value):
    """One resolved coordinate: value x = start (+ step * i [, i < count]).
    A range always has a count: ValueError where one is built without."""

    __slots__ = ("var", "kind", "start", "step", "count")

    def __init__(self, var: str, kind: str, start: LinearTerm, step: int = 0,
                 count: LinearTerm | None = None):
        if kind == "range" and count is None:
            raise ValueError(f"range level along {var} has no count")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "kind", kind)  # "point" | "ray" | "range"
        # over earlier variables and parameters; exact on guards
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)  # point: 0; ray: any nonzero; range: >= 1
        object.__setattr__(self, "count", count)  # range only; >= 1 on the guard


class Tower(Value):
    __slots__ = ("variables", "levels", "guard")

    def __init__(self, variables: tuple[str, ...], levels: tuple[Level, ...],
                 guard: tuple[Atom, ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "guard", guard)  # conjunction over parameters only


def level_atoms(level: Level) -> list[Atom]:
    """Atoms over the level's variable, the earlier variables and the
    parameters that hold exactly at the level's values."""
    v = LinearTerm.variable(level.var)
    den = level.start.denominator_lcm()
    offset = v.scale(den) - level.start.integer_term(den)
    if level.kind == "point":
        return [eq0(offset)]
    sign = 1 if level.step > 0 else -1
    atoms = [geq0(offset.scale(sign))]
    if den * abs(level.step) >= 2:
        atoms.append(divides(den * abs(level.step), offset.scale(sign)))
    if level.kind == "range":
        end = level.start + level.count.scale(level.step) - level.step
        den2 = end.denominator_lcm()
        atoms.append(geq0((end.integer_term(den2) - v.scale(den2)).scale(sign)))
    return atoms


def _substitute_value(atom: Atom, var: str, num: LinearTerm, den: int) -> Atom:
    """Substitute var := num/den (den >= 1) and clear denominators exactly."""
    c = atom.term.coeff(var)
    rest = atom.term.drop(var)
    term = rest.scale(den) + num.scale(c)
    if atom.kind == DIV:
        return divides(atom.modulus * den, term)
    return Atom(atom.kind, term)


def _live(atoms: Iterable[Atom]) -> list[Atom] | None:
    """The atoms that do not simplify to TRUE, or None when one simplifies to
    FALSE; every fresh branch atom passes here, so a dead branch is never built."""
    out = []
    for a in atoms:
        result = simplify_atom(a)
        if isinstance(result, FalseF):
            return None
        if not isinstance(result, TrueF):
            out.append(a)
    return out


# The branches of _split_variable by (the atoms that mention the variable,
# the variable), as (suffix, level) pairs: a branch is the caller's other
# atoms followed by a suffix, and the suffix and the level depend on the
# atoms that mention the variable alone.
_SPLITS: dict = {}
SPLITS_BOUND = 4096
cache_tables(globals(), "_SPLITS")

# Most residue-class branches one variable split may build, counted before
# they are built.  A congruence or alignment split makes one branch per
# residue, so a huge modulus would otherwise run for minutes and fill memory;
# no split of the test suite or the benchmark workloads builds more than 71.
SPLIT_BUDGET = 50_000


def _split_variable(atoms: list[Atom], var: str) -> list[tuple[list[Atom], Level]]:
    """Resolve one variable into levels, emitting guard atoms over the rest."""
    with_var: list[Atom] = []
    rest: list[Atom] = []
    for a in atoms:
        (with_var if a.term.coeff(var) != 0 else rest).append(a)
    key = (tuple(with_var), var)
    if (splits := _SPLITS.get(key)) is None:
        splits = remember(_SPLITS, key, _resolve_variable(with_var, var), SPLITS_BOUND)
    return [(rest + suffix, level) for suffix, level in splits]


class _SplitBudget:
    """The branches one variable split has left to build."""

    __slots__ = ("var", "left")

    def __init__(self, var: str):
        self.var = var
        self.left = SPLIT_BUDGET

    def spend(self, branches: int) -> None:
        self.left -= branches
        if self.left < 0:
            raise ExpansionBudgetError(
                f"splitting {self.var} needs more than {SPLIT_BUDGET} branches, "
                "the budget of one variable split")


def _resolve_variable(with_var: list[Atom], var: str) -> list[tuple[list[Atom], Level]]:
    """The levels of var over the atoms that mention it, each with the guard
    atoms, over the other variables, on which it holds."""
    # equalities pin the variable to a point
    for i, a in enumerate(with_var):
        if a.kind == EQ0:
            c = a.term.coeff(var)
            t = a.term.drop(var)
            num = t.scale(-1) if c > 0 else t
            den = abs(c)
            # by position: a repeat of the equality is substituted like any other atom
            others = with_var[:i] + with_var[i + 1:]
            fresh = _live(([divides(den, num)] if den > 1 else [])
                          + [_substitute_value(x, var, num, den) for x in others])
            if fresh is None:
                return []
            value = num.scale(Fraction(1, den))
            return [(fresh, Level(var, "point", value))]

    # bounds as (numerator term, positive denominator)
    lowers: list[tuple[LinearTerm, int]] = []
    uppers: list[tuple[LinearTerm, int]] = []
    congruences: list[tuple[int, int, LinearTerm]] = []  # (modulus, coeff, rest)
    for a in with_var:
        c = a.term.coeff(var)
        t = a.term.drop(var)
        if a.kind == GEQ0:
            if c > 0:
                lowers.append((t.scale(-1), c))  # var >= -t/c
            else:
                uppers.append((t, -c))  # var <= t/(-c)
        else:
            congruences.append((a.modulus, c, t))

    budget = _SplitBudget(var)
    branches: list[tuple[list[Atom], list[LinearTerm], list[LinearTerm], int, int]] = [
        ([], [], [], 0, 1)  # atoms, lower forms, upper forms, residue, modulus
    ]

    # make bounds affine by splitting numerators modulo denominators: on
    # num = r (mod den), ceil(num/den) is (num - r)/den + [r > 0] and
    # floor(num/den) is (num - r)/den
    bounds = [(n, d, True) for n, d in lowers] + [(n, d, False) for n, d in uppers]
    for num, den, is_lower in bounds:
        budget.spend(len(branches) * den)
        new = []
        for atoms2, lows, ups, r0, m0 in branches:
            for r in range(den):
                fresh = _live([divides(den, num - r)]) if den > 1 else []
                if fresh is None:
                    continue
                form = (num - r).scale(Fraction(1, den))
                if is_lower:
                    new.append((atoms2 + fresh, lows + [form + 1 if r else form], ups, r0, m0))
                else:
                    new.append((atoms2 + fresh, lows, ups + [form], r0, m0))
        branches = new

    # resolve congruences to a concrete residue class of var
    for modulus, c, t in congruences:
        budget.spend(len(branches) * modulus)
        new = []
        for atoms2, lows, ups, r0, m0 in branches:
            for rho in range(modulus):
                # branch on t = rho (mod modulus); need c*var = -rho (mod modulus)
                combined = crt(r0, m0, -rho, modulus, c)
                if combined is None:
                    continue  # no var on this residue of t
                fresh = _live([divides(modulus, t - rho)])
                if fresh is None:
                    continue
                new.append((atoms2 + fresh, lows, ups, combined[0], combined[1]))
        branches = new

    out: list[tuple[list[Atom], Level]] = []
    for atoms2, lows, ups, r_star, m_star in branches:
        # max-split the lower bounds, min-split the upper bounds
        for low_atoms, low in _extremum_split(lows, want_max=True):
            for up_atoms, up in _extremum_split(ups, want_max=False):
                base_atoms = atoms2 + low_atoms + up_atoms
                out.extend(_aligned_levels(base_atoms, var, low, up, r_star, m_star, budget))
    return out


def _extremum_split(
    forms: list[LinearTerm], want_max: bool
) -> list[tuple[list[Atom], LinearTerm | None]]:
    """Disjoint branches selecting the max (or min) of affine forms.

    A pick that some other form beats outright (a constant comparison that
    is FALSE) is left out.
    """
    if not forms:
        return [([], None)]
    if len(forms) == 1:
        return [([], forms[0])]
    out = []
    for i, cand in enumerate(forms):
        atoms: list[Atom] = []
        for j, other in enumerate(forms):
            if i == j:
                continue
            diff = cand - other if want_max else other - cand
            term = diff.integer_term(diff.denominator_lcm())
            # strict for j < i, non-strict for j > i: a disjoint argmax choice
            atoms.append(geq0(term - 1) if j < i else geq0(term))
        live = _live(atoms)
        if live is not None:
            out.append((live, cand))
    return out


def _alignment_split(
    form: LinearTerm, modulus: int, held: Sequence[Atom], budget: _SplitBudget
) -> list[tuple[list[Atom], int]]:
    """Branches fixing the residue of an integer-valued affine form; a
    residue the form cannot take is left out.  When the held atoms already
    fix it, only that residue's branch is built: the others contradict them
    and would die in the feasibility test."""
    if modulus == 1:
        return [([], 0)]
    den = form.denominator_lcm()
    term = form.integer_term(den)
    held_residue = _held_residue(term, den * modulus, held)
    if held_residue is None:
        budget.spend(modulus)
        sigmas: Iterable[int] = range(modulus)
    else:
        budget.spend(1)
        sigma, r = divmod(held_residue, den)
        sigmas = [] if r else [sigma]
    out = []
    for sigma in sigmas:
        live = _live([divides(den * modulus, term - den * sigma)])
        if live is not None:
            out.append((live, sigma))
    return out


def _held_residue(term: LinearTerm, modulus: int, held: Sequence[Atom]) -> int | None:
    """term's residue modulo modulus when it is a constant or a held
    divisibility m | u with modulus | m fixes it: term = a*u + k
    (mod modulus) coefficient by coefficient, as on a branch of the
    congruence split of _resolve_variable, where u = t - rho.  None
    otherwise."""
    if not term.coeffs:
        return term.const % modulus
    for atom in held:
        if atom.kind != DIV or atom.modulus % modulus:
            continue
        u = atom.term
        name, c = u.coeffs[0]
        solved = crt(0, 1, term.coeff(name), modulus, c)
        if solved is None:
            continue
        a = solved[0]
        if all((term.coeff(n) - a * u.coeff(n)) % modulus == 0
               for n, _ in term.coeffs + u.coeffs):
            return (term.const - a * u.const) % modulus
    return None


def _aligned_levels(
    base_atoms: list[Atom],
    var: str,
    low: LinearTerm | None,
    up: LinearTerm | None,
    r_star: int,
    m_star: int,
    budget: _SplitBudget,
) -> list[tuple[list[Atom], Level]]:
    """Produce level branches once bounds are affine and the residue is fixed."""
    out: list[tuple[list[Atom], Level]] = []
    if low is not None and up is not None:
        up_splits = _alignment_split(up, m_star, base_atoms, budget)
        low_splits = _alignment_split(low, m_star, base_atoms, budget)
        budget.spend(len(low_splits) * len(up_splits))
        for atoms_l, sig_l in low_splits:
            start = low + ((r_star - sig_l) % m_star)
            for atoms_u, sig_u in up_splits:
                end = up - ((sig_u - r_star) % m_star)
                count = (end - start).scale(Fraction(1, m_star)) + 1
                den = count.denominator_lcm()
                nonempty = _live([geq0((count - 1).integer_term(den))])
                if nonempty is None:
                    continue
                atoms3 = base_atoms + atoms_l + atoms_u + nonempty
                out.append((atoms3, Level(var, "range", start, m_star, count)))
    elif low is not None:
        for atoms_l, sig_l in _alignment_split(low, m_star, base_atoms, budget):
            start = low + ((r_star - sig_l) % m_star)
            out.append((base_atoms + atoms_l, Level(var, "ray", start, m_star)))
    elif up is not None:
        for atoms_u, sig_u in _alignment_split(up, m_star, base_atoms, budget):
            start = up - ((sig_u - r_star) % m_star)
            out.append((base_atoms + atoms_u, Level(var, "ray", start, -m_star)))
    else:
        up_start = LinearTerm.constant(r_star)
        down_start = LinearTerm.constant(r_star - m_star)
        out.append((list(base_atoms), Level(var, "ray", up_start, m_star)))
        out.append((list(base_atoms), Level(var, "ray", down_start, -m_star)))
    return out


def triangulate(cell: GuardedCell) -> list[Tower]:
    """Split one cell into disjoint towers, resolving its variables last-to-first."""
    guard = list(cell.param_guard)

    def rec(atoms: list[Atom], vars_left: tuple[str, ...]) -> list[tuple[list[Atom], list[Level]]]:
        if not vars_left:
            return [(atoms, [])]
        var = vars_left[-1]
        results = []
        for branch_atoms, level in _split_variable(atoms, var):
            if not atoms_satisfiable(branch_atoms + guard):
                continue
            for param_atoms, levels in rec(branch_atoms, vars_left[:-1]):
                results.append((param_atoms, levels + [level]))
        return results

    towers = []
    for param_atoms, levels in rec(list(cell.constraints), cell.variables):
        # the cleaned atoms, then the cell's guard, each atom once in order;
        # every branch atom passed _live and every constraint is canonical,
        # so each cleans to an atom
        kept = dict.fromkeys(map(simplify_atom, param_atoms))
        kept.update(dict.fromkeys(guard))
        towers.append(Tower(cell.variables, tuple(levels), tuple(kept)))
    return towers


def towers_in_domain(
    cells: Iterable[GuardedCell],
    domain: Sequence[list[Atom]],
) -> Iterator[tuple[Tower, list[list[Atom]]]]:
    """Each tower of the cells that meets the domain, with its guards.

    domain holds disjoint conjunctions, as from disjoint_conjunctions; the
    guards are the satisfiable conjunctions of the tower's guard atoms
    followed by the atoms of one domain piece, so together they cover the
    part of the tower's guard inside the domain.
    """
    for cell in cells:
        for tower in triangulate(cell):
            own = list(tower.guard)
            guards = [own + piece for piece in domain if atoms_satisfiable(own + piece)]
            if guards:
                yield tower, guards


# ---------------------------------------------------------------------------
# closed-form summation over towers


class SumTerm(Value):
    """poly * p^exponent, both over parameters (plus not-yet-summed variables)."""

    __slots__ = ("poly", "exponent")

    def __init__(self, poly: Polynomial, exponent: LinearTerm):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "exponent", exponent)


def base_value(tower: Tower, form: LinearTerm) -> LinearTerm:
    """form at the tower's first point, over the parameters: each level's
    start substituted, innermost first."""
    for level in reversed(tower.levels):
        form = form.substitute(level.var, level.start)
    return form


def level_increment(exponent: LinearTerm, level: Level, outer: Sequence[Level],
                    guard: Sequence[Atom]) -> tuple[Level, int]:
    """The level as a walker sums it, and exponent's increment along it.

    The one integrality rule for tower weights: a weight is integer-valued
    on a tower's fiber over a guard iff it is an integer at the base point
    (base_value, tested by checked_towers) and its increment at each level,
    taken with the inner point levels substituted, is an integer wherever
    the level holds two or more points.  Otherwise InputError, raised before
    any divergence test; a range that holds one point wherever the outer
    levels and the guard allow (count >= 2 is unsatisfiable there) is summed
    as the point at its start.
    """
    if level.kind == "point":
        return level, 0
    gamma = exponent.coeff(level.var) * level.step
    if gamma.denominator == 1:
        return level, gamma.numerator
    if level.kind == "range":
        wide = level.count - 2
        atoms = [a for k in outer for a in level_atoms(k)] + list(guard)
        if not atoms_satisfiable(atoms + [geq0(wide.integer_term(wide.denominator_lcm()))]):
            return Level(level.var, "point", level.start), 0
    raise InputError(f"exponent increment {gamma} along {level.var} is not an integer")


def sum_over_tower(tower: Tower, weight: LinearTerm, p: int) -> list[SumTerm]:
    """Sum p^weight over the tower fiber, symbolically in the parameters.

    Each level's increment is read through level_increment, term by term,
    so a non-integral one raises InputError before a ray along which
    p^weight does not shrink raises DivergesError.

    From the innermost level out, the summand stays a constant while each
    level is a point or geometric (a nonzero exponent increment gamma), so
    those levels are summed on exact (coefficient, exponent) pairs: c at a
    ray becomes c/(1 - p^gamma) at the start, and a range adds
    -c/(1 - p^gamma) at start + count*gamma.  The first range with
    gamma = 0 goes with the levels outside it to _sum_level.
    """
    levels = tower.levels[::-1]
    pairs: list[tuple[Rat, LinearTerm]] = [(1, weight)]
    done = 0
    while done < len(levels):
        level = levels[done]
        var = level.var
        outer = tower.levels[:len(levels) - 1 - done]
        merged: dict[LinearTerm, Rat] = {}
        for c, exponent in pairs:
            rest = exponent.substitute(var, level.start)
            summed, gamma = level_increment(exponent, level, outer, tower.guard)
            if summed.kind == "point":
                merged[rest] = merged.get(rest, 0) + c
                continue
            if summed.kind == "range" and gamma == 0:
                break  # to _sum_level with the levels outside it
            if summed.kind == "ray" and gamma >= 0:
                raise DivergesError(var, 1 if summed.step > 0 else -1)
            head = c / (1 - power_fraction(p, gamma))
            merged[rest] = merged.get(rest, 0) + head
            if summed.kind == "range":
                tail = rest + summed.count.scale(gamma)
                merged[tail] = merged.get(tail, 0) - head
        else:
            pairs = [(c, e) for e, c in merged.items() if c]
            done += 1
            continue
        break

    terms = [SumTerm(Polynomial.constant(c), e) for c, e in pairs]
    for i in range(done, len(levels)):
        outer = tower.levels[:len(levels) - 1 - i]
        new_terms: list[SumTerm] = []
        for term in terms:
            summed, _ = level_increment(term.exponent, levels[i], outer, tower.guard)
            new_terms.extend(_sum_level(term, summed, p))
        terms = _merge_terms(new_terms)
    return terms


def _sum_level(term: SumTerm, level: Level, p: int) -> list[SumTerm]:
    """term summed over the level, as level_increment returns it for term,
    so the exponent's increment along it is an integer.  A flat range
    (increment 0) sums the powers of its variable by _progression_sums; a
    geometric level reads the closed forms of bounded_power_sums."""
    var = level.var
    exp_rest = term.exponent.substitute(var, level.start)
    if level.kind == "point":
        return [SumTerm(term.poly.substitute_affine(var, level.start), exp_rest)]

    gamma_int = (term.exponent.coeff(var) * level.step).numerator
    ray = level.kind == "ray"
    if ray and gamma_int >= 0:
        raise DivergesError(var, 1 if level.step > 0 else -1)
    if not ray and gamma_int == 0:
        sums = _progression_sums(level, term.poly.degree_in(var))
        total = term.poly.substitute_powers(var, sums)
        return [SumTerm(total, exp_rest)] if not total.is_zero() else []

    # the summand in the index @i of the level, x = start + step * @i; each
    # power @i^d is replaced by its sum over the level: the head A_d of a
    # ray, and A_d + q^(K+1) B_d(K) over a range of count K + 1
    poly = term.poly.substitute_affine(
        var, level.start + LinearTerm.variable(_IOTA).scale(level.step))
    closed = bounded_power_sums(power_fraction(p, gamma_int), poly.degree_in(_IOTA))
    out = []
    head = poly.substitute_powers(_IOTA, [Polynomial.constant(a) for a, _ in closed])
    if not head.is_zero():
        out.append(SumTerm(head, exp_rest))
    if not ray:
        count = level.count
        k_powers = _powers((count - 1).to_polynomial(), len(closed) - 1)
        tails = [Polynomial.combine(zip(b, k_powers)) for _, b in closed]
        tail = poly.substitute_powers(_IOTA, tails)
        if not tail.is_zero():
            out.append(SumTerm(tail, exp_rest + count.scale(gamma_int)))
    return out


def _powers(base: Polynomial, top: int) -> list[Polynomial]:
    """base^0, ..., base^top."""
    powers = [Polynomial.constant(1)]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


def _progression_sums(level: Level, degree: int) -> list[Polynomial]:
    """S_0, ..., S_degree of a range level, S_j the sum of x^j over its
    points x = start + step*i, i < count, as polynomials over the earlier
    variables and the parameters: S_0 = count, S_1 = count*(first + last)/2,
    and S_j = sum_k C(j, k) start^(j-k) step^k F_k(count - 1) for j >= 2,
    F_k(K) = sum_{i<=K} i^k the Faulhaber sums."""
    count = level.count
    sums = [count.to_polynomial()]
    if degree >= 1:
        ends = level.start.scale(2) + count.scale(level.step) - level.step
        sums.append((sums[0] * ends.to_polynomial()).scale(Fraction(1, 2)))
    if degree >= 2:
        k_powers = _powers((count - 1).to_polynomial(), degree + 1)
        rows = [Polynomial.combine(zip(f, k_powers)) for f in faulhaber(degree)]
        starts = _powers(level.start.to_polynomial(), degree)
        for j in range(2, degree + 1):
            sums.append(Polynomial.combine(
                (math.comb(j, k) * level.step ** k, starts[j - k] * rows[k])
                for k in range(j + 1)))
    return sums


def _merge_terms(terms: Iterable[SumTerm]) -> list[SumTerm]:
    by_exponent: dict[LinearTerm, list[tuple[int, Polynomial]]] = {}
    for t in terms:
        by_exponent.setdefault(t.exponent, []).append((1, t.poly))
    merged = [SumTerm(Polynomial.combine(pairs), e) for e, pairs in by_exponent.items()]
    return [t for t in merged if not t.poly.is_zero()]


# ---------------------------------------------------------------------------
# parametric counting


class PiecewisePolynomial(Value):
    """Disjoint guards covering the parameter domain, one polynomial each;
    guards are atom tuples from simplify_conjunction."""

    __slots__ = ("param_vars", "pieces")

    def __init__(self, param_vars: tuple[str, ...],
                 pieces: tuple[tuple[tuple[Atom, ...], Polynomial], ...]):
        object.__setattr__(self, "param_vars", param_vars)
        object.__setattr__(self, "pieces", pieces)

    def evaluate(self, point: Mapping[str, int]) -> Fraction:
        for guard, poly in self.pieces:
            if all(a.evaluate(point) for a in guard):
                return poly.evaluate(point)
        raise OutOfDomainError(f"{dict(point)} lies outside the declared domain")


def count_tower(tower: Tower) -> Polynomial:
    """The number of points of the tower's fiber, as a polynomial over the
    parameters, exact on the tower's guard; InfiniteFiberError names the
    outermost ray.

    From the innermost level out, a point substitutes its start for its
    variable, and a range replaces each power x^j of its variable by S_j,
    the sum of x^j over the range's arithmetic progression
    (_progression_sums).
    """
    for level in tower.levels:
        if level.kind == "ray":
            raise InfiniteFiberError(level.var, 1 if level.step > 0 else -1)
    poly = Polynomial.constant(1)
    for level in reversed(tower.levels):
        if level.kind == "point":
            poly = poly.substitute_affine(level.var, level.start)
        else:
            sums = _progression_sums(level, poly.degree_in(level.var))
            poly = poly.substitute_powers(level.var, sums)
    return poly


def count_parametric(
    cells: Sequence[GuardedCell], param_domain: Formula, param_vars: Sequence[str]
) -> PiecewisePolynomial:
    """Exact fiber cardinalities as guarded polynomials over param_vars, the
    parameters the cells were built over (as by to_cells).

    InputError when param_domain names a variable outside param_vars."""
    stray = sorted(free_variables(param_domain) - set(param_vars))
    if stray:
        raise InputError(f"the parameter domain names {stray}, which are not parameters")
    domain = disjoint_conjunctions(param_domain)
    regions = [(atoms, Polynomial.constant(0)) for atoms in domain]
    # towers outside the domain are skipped before the ray check
    for tower, _ in towers_in_domain(cells, domain):
        poly = count_tower(tower)
        regions = refine(regions, list(tower.guard), lambda acc, poly=poly: acc + poly)
    pieces = tuple((simplify_conjunction(atoms), acc) for atoms, acc in regions)
    return PiecewisePolynomial(tuple(param_vars), pieces)


# ---------------------------------------------------------------------------
# rectilinearization


def _pieces_from_tower(tower: Tower, out_order: Sequence[str]) -> list[dict[str, LinearTerm]]:
    """The tower's points as injective affine images of N^m, one mapping per
    piece: each variable of out_order goes to a form over the parameters and
    N-valued @m0, @m1, ... (one per ray), each range of constant width being
    expanded into its points."""
    branches: list[tuple[dict[str, LinearTerm], int]] = [({}, 0)]
    for level in tower.levels:
        new_branches = []
        for forms, rays in branches:
            start = level.start
            for v, f in forms.items():
                start = start.substitute(v, f)
            if level.kind == "point":
                forms2 = dict(forms)
                forms2[level.var] = start
                new_branches.append((forms2, rays))
            elif level.kind == "ray":
                forms2 = dict(forms)
                forms2[level.var] = start + LinearTerm.variable(f"@m{rays}").scale(level.step)
                new_branches.append((forms2, rays + 1))
            else:
                count = level.count
                for v, f in forms.items():
                    count = count.substitute(v, f)
                if not count.is_constant():
                    raise NotRectilinearizableError(
                        f"parametric range width along {level.var}"
                    )
                n = count.const
                if n.denominator != 1:
                    raise AssertionError(f"constant range width {n} along {level.var}")
                for j in range(int(n)):
                    forms2 = dict(forms)
                    forms2[level.var] = start + level.step * j
                    new_branches.append((forms2, rays))
        branches = new_branches

    pieces = []
    for forms, _ in branches:
        for v in out_order:
            if any(c.denominator != 1 for n, c in forms[v].coeffs if n.startswith("@m")):
                raise NotRectilinearizableError("fractional generator entry")
        pieces.append({v: forms[v] for v in out_order})
    return pieces


def variable_orders(variables: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The given order first, then every other permutation in sorted order,
    built one at a time."""
    identity = tuple(variables)
    yield identity
    yield from (p for p in itertools.permutations(sorted(identity)) if p != identity)


def in_first_order(cell: GuardedCell, attempt: Callable[[GuardedCell], V]) -> V:
    """attempt of the cell resolved in the first of its variable_orders that
    raises no NotRectilinearizableError; the last such error when every
    order does."""
    for order in variable_orders(cell.variables):
        try:
            return attempt(GuardedCell(order, cell.constraints, cell.param_guard))
        except NotRectilinearizableError as err:
            last_error = err
    raise last_error


def rectilinearize(cells: Sequence[GuardedCell]) -> list[dict[str, LinearTerm]]:
    """Rewrite disjoint cells as disjoint affine images of N^m, each a mapping
    from the cell variables to affine forms (see _pieces_from_tower).

    Bounded directions are expanded only when their width is constant; a cell
    whose every variable order leaves a parametric width raises
    NotRectilinearizableError.  The forms keep no guard, so a cell with
    parameters raises ValueError.
    """
    pieces: list[dict[str, LinearTerm]] = []
    for cell in cells:
        params = sorted({n for a in cell.constraints + cell.param_guard
                         for n in a.term.variables()} - set(cell.variables))
        if params:
            raise ValueError(f"rectilinearize takes no parameters, got {params}")
        pieces.extend(in_first_order(
            cell,
            lambda ordered: [piece for tower in triangulate(ordered)
                             for piece in _pieces_from_tower(tower, cell.variables)]))
    return pieces
