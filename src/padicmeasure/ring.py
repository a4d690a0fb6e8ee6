"""The ring of cellularly presented definable families.

A Presentation is a rational combination of box cells over a shared parameter
base.  Ring operations work generator-wise (sums concatenate, products take
fiber products), the measure function maps a presentation to a guarded
exponential polynomial, and equality is decided by testing the measure of the
difference for identical vanishing, which is faithful for the underlying ring.

normalize_to_basic clears every unbounded valuation direction out of a
presentation: it splits cells into towers, peels geometric tails into
rational factors, and leaves only finite-fiber generators whose weight
depends on the parameters alone.  Every transformation is recorded as a
replayable certificate step, built with its after by _certified, as the
certified rewrites build theirs.

measure_function, decide_equal (a - b) and replay (each step's before -
after, once the steps chain) share one generator-by-generator difference
path: each distinct cell's closed form is computed once, cells that net to
zero cancel, and the terms of the rest are summed per guard and exponent.
Only the nonzero sums are canonicalized, once, so a difference that cancels
term by term is the zero polynomial with no refinement, and a NotEqual is
refined only by the guards of terms that survive.  Replay keeps one table
of closed forms for the whole certificate, and after the first step nets
only the generators a step changes: those between the longest common
prefix and suffix of its before and after, which _common_ends finds, the
one scan the reader uses too.  A NotEqual witness is any domain point
where the two values differ; the zero test gives the difference's value
there, so only the first value is evaluated.

Certificates are written, read and replayed once per distinct cell, not
once per snapshot: certificate_to_document formats each distinct cell and
each distinct parameter domain once, and certificate_from_document parses
and checks each distinct cell, lambda formula and parameter domain once, so
snapshots that repeat a cell share one object.  Each snapshot is built, or
read against the one before it, once, so each step's before is the
previous step's after.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Union

from .algebra import (
    LinearTerm,
    Polynomial,
    Value,
    format_rational,
    frac,
    parse_rational,
    power_fraction,
    variable_name,
)
from .measure import (
    MEASURE_ZERO,
    BoxCell,
    Coordinate,
    DegenerateCoordinate,
    DivergesError,
    ExpPolynomial,
    ExpTerm,
    InputError,
    MeasureFunction,
    PAdicContext,
    Weight,
    cell_to_weighted_sum,
    checked_towers,
    exp_poly_is_zero,
    lambda_vars_of,
    make_exp_polynomial,
    sum_closed_form,
)
from .presburger import (
    Atom,
    Formula,
    TRUE,
    conj,
    eq0,
    format_formula,
    free_variables,
    geq0,
    neg,
    parse,
    parse_domain,
    parse_term,
    simplify,
    substitute,
)
from .semilinear import (
    GuardedCell,
    Level,
    NotRectilinearizableError,
    PiecewisePolynomial,
    count_parametric,
    disjoint_conjunctions,
    in_first_order,
    level_atoms,
    level_increment,
    to_cells,
)


class ContextMismatchError(ValueError):
    pass


ALLOWED_RULES = (
    "R1",
    "R2",
    "R3_translate",
    "R3_coordperm",
    "R3_shear",
    "R3_scale",
    "R4",
    "L_Delta",
    "L_acLevel",
    "L_product",
    "P_reparam",
    "GeomSum",
    "CellSplit",
)


class Presentation(Value):
    __slots__ = ("ctx", "param_vars", "param_domain", "generators")

    def __init__(self, ctx: PAdicContext, param_vars: tuple[str, ...], param_domain: Formula,
                 generators: tuple[tuple[Fraction, BoxCell], ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "param_vars", param_vars)
        object.__setattr__(self, "param_domain", param_domain)
        object.__setattr__(self, "generators", generators)

    def validate(self) -> None:
        self._validate(set())

    def _validate(self, checked: set[BoxCell]) -> None:
        """validate, skipping the per-cell checks of each cell in checked,
        which passed them before over this prime and these parameters; each
        cell that passes them is added."""
        declared = set(self.param_vars)
        if len(declared) != len(self.param_vars):
            twice = sorted(v for v in declared if self.param_vars.count(v) > 1)
            raise InputError(f"parameters {twice} are declared twice")
        stray = free_variables(self.param_domain) - declared
        if stray:
            raise InputError(f"param_domain references undeclared parameters {sorted(stray)}")
        for _, cell in self.generators:
            if cell in checked:
                continue
            cell.validate(self.ctx)
            stray = set(cell.param_variables()) - declared
            if stray:
                raise InputError(f"generator references undeclared parameters {sorted(stray)}")
            shadowed = set(cell.lambda_vars) & declared
            if shadowed:
                raise InputError(f"lambda variables {sorted(shadowed)} are also parameters")
            checked.add(cell)


def presentation(
    ctx: PAdicContext,
    generators: Iterable[tuple[Union[int, Fraction], BoxCell]],
    param_vars: Sequence[str] = (),
    param_domain: Formula = TRUE,
) -> Presentation:
    gens = tuple((frac(c), cell) for c, cell in generators)
    pres = Presentation(ctx, tuple(param_vars), simplify(param_domain), gens)
    pres.validate()
    return pres


def _same_base(a: Presentation, b: Presentation) -> None:
    if a.ctx != b.ctx or a.param_vars != b.param_vars or a.param_domain != b.param_domain:
        raise ContextMismatchError("presentations live over different bases")


def add(a: Presentation, b: Presentation) -> Presentation:
    _same_base(a, b)
    return Presentation(a.ctx, a.param_vars, a.param_domain, a.generators + b.generators)


def scalar_mul(q: Union[int, Fraction], a: Presentation) -> Presentation:
    q = frac(q)
    if q == 0:
        return Presentation(a.ctx, a.param_vars, a.param_domain, ())
    return Presentation(
        a.ctx, a.param_vars, a.param_domain,
        tuple((c * q, cell) for c, cell in a.generators),
    )


def _fresh_names(taken: set[str], names: Sequence[str]) -> dict[str, str]:
    mapping = {}
    for name in names:
        candidate = name
        k = 2
        while candidate in taken:
            candidate = f"{name}_{k}"
            k += 1
        taken.add(candidate)
        mapping[name] = candidate
    return mapping


def _rename(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """f with its variables renamed all at once: each goes through a fresh
    temporary first, so a new name never captures a variable renamed later."""
    moved = {old: new for old, new in mapping.items() if old != new}
    temps = _fresh_names(set(free_variables(f)) | set(moved.values()), list(moved))
    for old in moved:
        f = substitute(f, old, LinearTerm.variable(temps[old]))
    for old, new in moved.items():
        f = substitute(f, temps[old], LinearTerm.variable(new))
    return f


def cell_product(left: BoxCell, right: BoxCell, param_vars: Sequence[str]) -> BoxCell:
    """Fiber product of two cells; right-hand lambda variables are renamed
    with a deterministic numeric suffix scheme on collision."""
    taken = set(param_vars) | set(left.lambda_vars)
    mapping = _fresh_names(taken, right.lambda_vars)
    rform = _rename(right.lambda_formula, mapping)
    lw = left.weight if left.weight is not None else Weight.constant(0)
    rw = right.weight if right.weight is not None else Weight.constant(0)
    r = math.lcm(lw.r, rw.r)
    b: dict[str, int] = {}
    for n, v in lw.b:
        b[n] = b.get(n, 0) + v * (r // lw.r)
    for n, v in rw.b:
        b[mapping[n]] = b.get(mapping[n], 0) + v * (r // rw.r)
    weight: Weight | None = Weight.make(
        r, lw.c.scale(r // lw.r) + rw.c.scale(r // rw.r), b
    )
    if weight.r == 1 and weight.c == LinearTerm.constant(0) and not weight.b:
        weight = None
    return BoxCell(
        left.coords + right.coords,
        left.lambda_vars + tuple(mapping[n] for n in right.lambda_vars),
        simplify(conj([left.lambda_formula, rform])),
        weight,
    )


def multiply(a: Presentation, b: Presentation) -> Presentation:
    _same_base(a, b)
    gens = []
    for ca, cella in a.generators:
        for cb, cellb in b.generators:
            gens.append((ca * cb, cell_product(cella, cellb, a.param_vars)))
    return Presentation(a.ctx, a.param_vars, a.param_domain, tuple(gens))


def _generator_terms(cell: BoxCell, base: Presentation) -> tuple[ExpTerm, ...]:
    """Closed-form terms of one generator's cell over base, unscaled; none
    for a negligible cell.  Raises as sum_closed_form does."""
    converted = cell_to_weighted_sum(cell, base.ctx)
    if converted is MEASURE_ZERO:
        return ()
    return sum_closed_form(*converted, base.param_domain, base.ctx, base.param_vars).terms


def _signed_measure(base: Presentation,
                    sides: Sequence[tuple[int, Sequence[tuple[Fraction, BoxCell]]]],
                    closed_forms: dict[BoxCell, tuple[ExpTerm, ...]]) -> ExpPolynomial:
    """Measure of the sum of sign * generators over base, generator by
    generator: each distinct cell gets its net coefficient, and the cells
    that do not net to zero add up coefficient * poly per guard and
    exponent, in cell order.  Only the nonzero sums go through the one
    canonicalization, so a difference that cancels term by term hands it no
    term and is the zero polynomial with no refinement.  closed_forms maps
    cells to their closed-form terms over base; each cell it lacks is added,
    and is computed even when it cancels, so a divergent cell (named by its
    index within its generators) or a non-integral weight raises."""
    net: dict[BoxCell, Fraction] = {}
    for sign, generators in sides:
        for index, (coeff, cell) in enumerate(generators):
            if cell not in closed_forms:
                try:
                    closed_forms[cell] = _generator_terms(cell, base)
                except DivergesError as err:
                    raise DivergesError(err.variable, err.direction, generator=index) from err
            net[cell] = net.get(cell, 0) + sign * coeff
    sums: dict = {}
    for cell, coeff in net.items():
        if coeff != 0:
            for t in closed_forms[cell]:
                sums.setdefault((t.guard, t.exponent), []).append((coeff, t.poly))
    raw = []
    for (guard, exponent), pairs in sums.items():
        poly = pairs[0][1].scale(pairs[0][0]) if len(pairs) == 1 else Polynomial.combine(pairs)
        if not poly.is_zero():
            raw.append((guard, poly, exponent))
    return make_exp_polynomial(base.ctx.p, base.param_vars, raw)


def measure_function(pres: Presentation) -> MeasureFunction:
    """Exact measure of each fiber, as a guarded exponential polynomial."""
    expp = _signed_measure(pres, [(1, pres.generators)], {})
    return MeasureFunction(expp, pres.param_domain)


def _value_at(pres: Presentation, closed_forms: Mapping, point: Mapping[str, int]) -> Fraction:
    """measure_function(pres) at a domain point, from its cells' closed forms."""
    total = Fraction(0)
    for coeff, cell in pres.generators:
        cell_measure = ExpPolynomial(pres.ctx.p, pres.param_vars, closed_forms[cell])
        total += coeff * MeasureFunction(cell_measure, pres.param_domain).evaluate(point)
    return total


class Equal(Value):
    __slots__ = ()

    def __bool__(self) -> bool:
        return True


class NotEqual(Value):
    __slots__ = ("witness", "value1", "value2")

    def __init__(self, witness: tuple[tuple[str, int], ...], value1: Fraction, value2: Fraction):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "value1", value1)
        object.__setattr__(self, "value2", value2)

    def __bool__(self) -> bool:
        return False

    def witness_dict(self) -> dict[str, int]:
        return dict(self.witness)


def decide_equal(a: Presentation, b: Presentation) -> Union[Equal, NotEqual]:
    """Equal iff the two measure functions agree at every parameter point;
    otherwise a witness, any domain point where they differ, with both exact
    values there: a's, from its cells' closed forms, and a's less the value
    of a - b that the zero test found there.  A cell met by an earlier
    call reuses its closed form."""
    _same_base(a, b)
    closed_forms: dict[BoxCell, tuple[ExpTerm, ...]] = {}
    diff = _signed_measure(a, [(1, a.generators), (-1, b.generators)], closed_forms)
    witness = exp_poly_is_zero(diff, a.param_domain)
    if witness is None:
        return Equal()
    # the witness names every parameter (the zero test searches all of
    # them), and its value is a - b there
    v = _value_at(a, closed_forms, witness.as_dict())
    return NotEqual(witness.point, v, v - witness.value)


# ---------------------------------------------------------------------------
# certificates


class CertificateStep(Value):
    __slots__ = ("rule", "note", "before", "after")

    def __init__(self, rule: str, note: str, before: Presentation, after: Presentation):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)


class Certificate(Value):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[CertificateStep, ...]):
        object.__setattr__(self, "steps", steps)


def find_invalid_step(cert: Certificate) -> int | None:
    """Index of the first step that fails to replay, or None.

    A step replays when its rule is allowed, its before is the previous
    step's after, both sides share one base, and before - after has measure
    zero, taken generator by generator as in decide_equal; a divergent cell
    or a non-integral weight rejects the first step that holds it, even when
    it cancels there.  Every step that replays this far has the base of step
    0 (the steps chain, and each step's sides share a base), so the whole
    certificate keeps one table of closed forms: each distinct cell's is
    computed once, and a cell met again costs one lookup.  After the first
    step, only the entries between the longest common prefix and suffix of
    before and after are netted: the shared ones cancel, and their cells,
    which the previous after holds, are in the table already.
    """
    closed_forms: dict[BoxCell, tuple[ExpTerm, ...]] = {}
    for i, step in enumerate(cert.steps):
        if step.rule not in ALLOWED_RULES:
            return i
        if i and step.before != cert.steps[i - 1].after:
            return i
        base = step.before
        removed, added = base.generators, step.after.generators
        if i:
            head, tail = _common_ends(removed, added)
            removed, added = removed[head:len(removed) - tail], added[head:len(added) - tail]
        try:
            _same_base(base, step.after)
            diff = _signed_measure(base, [(1, removed), (-1, added)], closed_forms)
        except (ContextMismatchError, DivergesError, InputError):
            return i
        if exp_poly_is_zero(diff, base.param_domain) is not None:
            return i
    return None


def _common_ends(before: Sequence, after: Sequence, same=operator.eq) -> tuple[int, int]:
    """(head, tail): the length of the longest common prefix of before and
    after, and of what is left, the length of their longest common suffix;
    entries are compared as same(before[i], after[i])."""
    n = min(len(before), len(after))
    head = 0
    while head < n and same(before[head], after[head]):
        head += 1
    tail = 0
    while tail < n - head and same(before[-1 - tail], after[-1 - tail]):
        tail += 1
    return head, tail


def verify_certificate(cert: Certificate) -> bool:
    return find_invalid_step(cert) is None


# ---------------------------------------------------------------------------
# certified rewrites (used to build derivation chains)


def _certified(pres: Presentation, rule: str, note: str,
               generators: Iterable[tuple[Fraction, BoxCell]],
               ) -> tuple[Presentation, CertificateStep]:
    """The presentation of generators over pres's base, and the step from
    pres to it."""
    after = Presentation(pres.ctx, pres.param_vars, pres.param_domain, tuple(generators))
    return after, CertificateStep(rule, note, pres, after)


def with_unit_ball(pres: Presentation) -> tuple[Presentation, CertificateStep]:
    """Append a unit-ball coordinate to every generator (measure unchanged)."""
    p = pres.ctx.p
    gens = []
    for coeff, cell in pres.generators:
        taken = set(pres.param_vars) | set(cell.lambda_vars)
        new = _fresh_names(taken, ("l",))["l"]
        lam = simplify(conj([cell.lambda_formula, geq0(LinearTerm.variable(new))]))
        for xi in range(1, p):
            gens.append(
                (coeff, BoxCell(
                    cell.coords + (Coordinate(Fraction(0), 1, xi),),
                    cell.lambda_vars + (new,),
                    lam,
                    cell.weight,
                ))
            )
    return _certified(pres, "R4", "product with the unit ball", gens)


def translate_centers(
    pres: Presentation, center: Fraction
) -> tuple[Presentation, CertificateStep]:
    gens = tuple(
        (coeff, BoxCell(
            tuple(
                Coordinate(frac(center), c.level, c.ac) if isinstance(c, Coordinate) else c
                for c in cell.coords
            ),
            cell.lambda_vars, cell.lambda_formula, cell.weight,
        ))
        for coeff, cell in pres.generators
    )
    return _certified(pres, "R3_translate", f"translate centers to {center}", gens)


def raise_level(pres: Presentation, new_level: int) -> tuple[Presentation, CertificateStep]:
    """Replace level-1 conditions by level-new_level ones, rescaling weights."""
    p = pres.ctx.p
    gens = []
    for coeff, cell in pres.generators:
        factor = Fraction(1)
        coords = []
        for c in cell.coords:
            if isinstance(c, Coordinate) and c.level == 1 and new_level > 1:
                coords.append(Coordinate(c.center, new_level, c.ac))
                factor *= power_fraction(p, new_level - 1)
            else:
                coords.append(c)
        gens.append((coeff * factor, BoxCell(tuple(coords), cell.lambda_vars,
                                             cell.lambda_formula, cell.weight)))
    return _certified(pres, "L_acLevel", f"raise angular-component level to {new_level}", gens)


def split_first_generator(pres: Presentation, predicate: Formula) -> tuple[Presentation, CertificateStep]:
    """Split generator 0 into predicate and complement parts (additivity)."""
    if not pres.generators:
        raise ValueError("nothing to split")
    coeff, cell = pres.generators[0]
    part1 = BoxCell(cell.coords, cell.lambda_vars,
                    simplify(conj([cell.lambda_formula, predicate])), cell.weight)
    part2 = BoxCell(cell.coords, cell.lambda_vars,
                    simplify(conj([cell.lambda_formula, neg(predicate)])), cell.weight)
    gens = ((coeff, part1), (coeff, part2)) + pres.generators[1:]
    return _certified(pres, "R1", "split a generator into disjoint parts", gens)


def permute_coordinates(pres: Presentation, rotation: int = 1) -> tuple[Presentation, CertificateStep]:
    """Cyclically rotate the coordinates of every generator (measure-neutral)."""
    gens = []
    for coeff, cell in pres.generators:
        n = len(cell.coords)
        if n == 0:
            gens.append((coeff, cell))
            continue
        k = rotation % n
        coords = cell.coords[k:] + cell.coords[:k]
        live = [i for i, c in enumerate(cell.coords) if isinstance(c, Coordinate)]
        perm = list(range(len(cell.coords)))[k:] + list(range(len(cell.coords)))[:k]
        new_live = [i for i in perm if i in live]
        names = tuple(cell.lambda_vars[live.index(i)] for i in new_live)
        gens.append((coeff, BoxCell(coords, names, cell.lambda_formula, cell.weight)))
    return _certified(pres, "R3_coordperm", f"rotate coordinates by {rotation}", gens)


def shift_lambda(pres: Presentation, offset: int) -> tuple[Presentation, CertificateStep]:
    """Reparametrize every lambda variable by +offset, compensating weights."""
    gens = []
    for coeff, cell in pres.generators:
        lam = cell.lambda_formula
        for v in cell.lambda_vars:
            lam = substitute(lam, v, LinearTerm.variable(v) - offset)
        base = cell.weight if cell.weight is not None else Weight.constant(0)
        # the weight field must satisfy w'(x) = w(x - offset); the natural
        # volume part contributes r*n*offset, the b-part -offset*sum(b)
        n = len(cell.lambda_vars)
        b_sum = sum(v for _, v in base.b)
        const = base.r * n * offset - offset * b_sum
        weight = Weight.make(base.r, base.c + const, dict(base.b))
        gens.append((coeff, BoxCell(cell.coords, cell.lambda_vars, simplify(lam), weight)))
    return _certified(pres, "P_reparam", f"shift valuations by {offset}", gens)


# ---------------------------------------------------------------------------
# normalization to basic presentations


class BasicPresentation(Value):
    """A presentation whose generators all have finite fibers and
    parameter-only weights, with the counting certificates attached."""

    __slots__ = ("presentation", "fiber_counts")

    def __init__(self, presentation: Presentation,
                 fiber_counts: tuple[PiecewisePolynomial, ...]):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "fiber_counts", fiber_counts)


class _GenState:
    __slots__ = ("coeff", "levels", "kept", "guard", "wtot", "cell")

    def __init__(self, coeff: Fraction, levels: list[Level], kept: list[Level],
                 guard: tuple[Atom, ...], wtot: LinearTerm):
        self.coeff = coeff
        self.levels = levels
        self.kept = kept
        self.guard = guard
        self.wtot = wtot  # total exponent over level variables and parameters
        self.cell: BoxCell | None = None  # built by _state_to_cell on first use


def _state_to_cell(state: _GenState) -> BoxCell:
    """The cell a state presents, built once: every snapshot that holds the
    state shares it."""
    if state.cell is not None:
        return state.cell
    levels = list(state.levels) + list(state.kept)
    names = [level.var for level in levels]
    atoms = [a for level in levels for a in level_atoms(level)]
    atoms.extend(state.guard)
    lam = simplify(conj(atoms))
    n = len(levels)
    # recover the weight field: cell_to_weighted_sum subtracts each lambda and
    # each level (all levels are 1 here), so add them back
    wfield = state.wtot + LinearTerm.make({name: 1 for name in names}, n)
    r = wfield.denominator_lcm()
    scaled = wfield.integer_term(r)
    c_term = LinearTerm.make({k: v for k, v in scaled.coeffs if k not in names}, scaled.const)
    b = {name: scaled.coeff(name) for name in names}
    weight: Weight | None = Weight.make(r, c_term, b)
    if weight.r == 1 and weight.c == LinearTerm.constant(0) and not weight.b:
        weight = None
    coords = tuple(Coordinate(Fraction(0), 1, 1) for _ in range(n))
    state.cell = BoxCell(coords, tuple(names), lam, weight)
    return state.cell


def normalize_to_basic(
    pres: Presentation,
) -> tuple[int, BasicPresentation, Certificate]:
    """Clear all unbounded directions: returns (ell, B, certificate) with
    measure(B) = ell * measure(pres), B basic, and every step replayable.
    The R2, R3_translate and L_acLevel pre-steps each build their
    generators, and are recorded only when those differ from the current
    ones.  Each tower is peeled once, first branch first, in the first
    variable order that never blocks, and its peel becomes the snapshots;
    a bad tower reports its first branch's error, as measure_function
    does in the same variable order.  Each cell and each snapshot is built
    once: each step's before is the previous step's after, and snapshots
    share the cells they both hold."""
    pres.validate()
    ctx = pres.ctx
    p = ctx.p
    steps: list[CertificateStep] = []
    current = pres

    def record(rule: str, note: str, generators: Iterable[tuple[Fraction, BoxCell]]) -> None:
        nonlocal current
        current, step = _certified(current, rule, note, generators)
        steps.append(step)

    def presented(states: list[_GenState]) -> list[tuple[Fraction, BoxCell]]:
        return [(st.coeff, _state_to_cell(st)) for st in states]

    def rewrite(rule: str, note: str, generators: list[tuple[Fraction, BoxCell]]) -> None:
        if tuple(generators) != current.generators:
            record(rule, note, generators)

    # R2: generators with a degenerate coordinate are negligible
    rewrite("R2", "drop lower-dimensional generators", [
        (coeff, cell) for coeff, cell in current.generators
        if not any(isinstance(c, DegenerateCoordinate) for c in cell.coords)
    ])

    # R3: translate centers to zero and angular components to one
    rewrite("R3_translate", "translate centers to zero and scale units to ac 1", [
        (coeff, BoxCell(tuple(Coordinate(Fraction(0), c.level, 1) for c in cell.coords),
                        cell.lambda_vars, cell.lambda_formula, cell.weight))
        for coeff, cell in current.generators
    ])

    # L_acLevel: reduce all levels to one
    rewrite("L_acLevel", "reduce angular-component levels to 1", [
        (coeff * power_fraction(p, -sum(c.level - 1 for c in cell.coords)),
         BoxCell(tuple(Coordinate(c.center, 1, c.ac) for c in cell.coords),
                 cell.lambda_vars, cell.lambda_formula, cell.weight))
        for coeff, cell in current.generators
    ])

    # per generator: split into towers, then peel directions
    ell = 1
    done: list[tuple[Fraction, BoxCell]] = []
    remaining = list(current.generators)
    while remaining:
        coeff, cell = remaining.pop(0)
        converted = cell_to_weighted_sum(cell, ctx)
        if converted is MEASURE_ZERO:
            raise AssertionError("degenerate generator survived the R2 step")
        lam, weight = converted
        wform = weight.affine()
        domain = disjoint_conjunctions(pres.param_domain)

        def peel_towers(ordered: GuardedCell) -> list[tuple]:
            # each tower is peeled as soon as checked_towers yields it
            peeled = []
            for tower, _ in checked_towers([ordered], wform, domain):
                state = _GenState(coeff, list(tower.levels), [], tower.guard, wform)
                peeled.append((state, *_peel(state, p)))
            return peeled

        towers = []
        for gcell in to_cells(lam, cell.lambda_vars, pres.param_vars):
            try:
                towers.extend(in_first_order(gcell, peel_towers))
            except NotRectilinearizableError as err:
                raise NotRectilinearizableError(
                    f"no variable order untangles this cell: {err}") from None
        ell = math.lcm(ell, math.prod(factor for *_, factor in towers))

        states = [state for state, *_ in towers]
        record("CellSplit", "decompose a generator into disjoint towers",
               done + presented(states) + remaining)
        for i, (_, peel_steps, finished, _) in enumerate(towers):
            for rule, note, live in peel_steps:
                record(rule, note, done + presented(live + states[i + 1:]) + remaining)
            done.extend(presented(finished))

    basic = current
    counts = []
    for _, cell in basic.generators:
        cells = to_cells(cell.lambda_formula, cell.lambda_vars, pres.param_vars)
        counts.append(count_parametric(cells, pres.param_domain, pres.param_vars))

    # scale each snapshot of the chain once; ell != 1 only after a CellSplit
    if ell != 1:
        scaled = [scalar_mul(ell, s) for s in [steps[0].before] + [s.after for s in steps]]
        steps = [CertificateStep(s.rule, s.note, scaled[i], scaled[i + 1])
                 for i, s in enumerate(steps)]
        basic = scaled[-1]
    cert = Certificate(tuple(steps))
    return ell, BasicPresentation(basic, tuple(counts)), cert


def _peel(state: _GenState, p: int) -> tuple[list[tuple], list[_GenState], int]:
    """Peel one tower depth first, first branch first, in the order the
    certificate records.  Returns (rule, note, finished and pending states
    after the step) for each step that changes the presented cells, the
    finished states, and the product of the (p^n - 1) factors of the
    GeomSum steps.

    Each state is peeled once, as it is popped, so a tower whose branches
    diverge or block differently reports the error of its first branch,
    as sum_over_tower does on the same tower."""
    steps = []
    finished: list[_GenState] = []
    factor = 1
    queue = [state]
    while queue:
        st = queue.pop(0)
        if not st.levels:
            finished.append(st)
            continue
        new_states, rule, note, gain = _peel_step(st, p)
        queue = new_states + queue
        factor *= gain
        if rule is not None:  # None is bookkeeping only, the presented cell is unchanged
            steps.append((rule, note, finished + queue))
    return steps, finished, factor


def _fold_point(state: _GenState, level: Level) -> _GenState:
    kept = [
        Level(k.var, k.kind,
              k.start.substitute(level.var, level.start), k.step,
              k.count.substitute(level.var, level.start))
        for k in state.kept
    ]
    return _GenState(
        state.coeff, state.levels[:-1], kept, state.guard,
        state.wtot.substitute(level.var, level.start),
    )


def _keep_range(state: _GenState, level: Level) -> _GenState:
    return _GenState(state.coeff, state.levels[:-1], [level] + state.kept,
                     state.guard, state.wtot)


def _split_range(state: _GenState, level: Level, gamma: int) -> list[_GenState]:
    step = level.step
    if gamma < 0:
        first = Level(level.var, "ray", level.start, step)
        second = Level(level.var, "ray", level.start + level.count.scale(step), step)
    else:
        end = level.start + level.count.scale(step) - step
        first = Level(level.var, "ray", end, -step)
        second = Level(level.var, "ray", level.start - step, -step)
    return [
        _GenState(state.coeff, state.levels[:-1] + [first], list(state.kept),
                  state.guard, state.wtot),
        _GenState(state.coeff.__neg__(), state.levels[:-1] + [second], list(state.kept),
                  state.guard, state.wtot),
    ]


def _peel_step(state: _GenState, p: int) -> tuple[list[_GenState], str, str, int]:
    """The states, rule and note of peeling the state's innermost level,
    and the (p^n - 1) factor of a GeomSum step (1 for the others)."""
    level, gamma = level_increment(state.wtot, state.levels[-1], state.levels[:-1],
                                   state.guard)
    if level.kind == "point":
        return ([_fold_point(state, level)], "P_reparam",
                f"substitute the pinned coordinate {level.var}", 1)
    if level.kind == "ray":
        for kept in state.kept:
            refs = set(kept.start.variables()) | set(kept.count.variables())
            if level.var in refs:
                raise NotRectilinearizableError(
                    f"kept range over {kept.var} references summed {level.var}")
        if gamma >= 0:
            raise DivergesError(level.var, 1 if level.step > 0 else -1)
        n = -gamma
        # no kept range references level.var, so folding its start changes
        # only the weight; the geometric factor goes into coeff
        big = power_fraction(p, n).numerator
        out = _fold_point(state, level)
        out.coeff = state.coeff * Fraction(big, big - 1)
        return ([out], "GeomSum",
                f"sum the geometric tail along {level.var} (ratio p^-{n})", big - 1)
    if gamma == 0:
        return ([_keep_range(state, level)], None,
                f"retain finite direction {level.var}", 1)
    return (_split_range(state, level, gamma), "CellSplit",
            f"split bounded direction {level.var} into a difference of tails", 1)


# ---------------------------------------------------------------------------
# document serialization (the on-disk presentation and certificate formats)


def _canonical_lambda_names(n: int) -> tuple[str, ...]:
    return tuple(f"l{i}" for i in range(1, n + 1))


def to_document(pres: Presentation) -> dict:
    """Serialize with canonical per-cell lambda names l1..ln (coordinate order);
    InputError when a parameter has one of those names."""
    return _to_document(pres, {})


def _written_cell(cell: BoxCell) -> tuple:
    """The document fields of a cell: its canonical lambda names, its
    coordinates, its lambda_formula text and its weight, as (r, c text, b
    tuple) or None."""
    names = _canonical_lambda_names(len(cell.lambda_vars))
    lam = _rename(cell.lambda_formula, dict(zip(cell.lambda_vars, names)))
    coords = tuple(
        (format_rational(c.center), c.level, c.ac) if isinstance(c, Coordinate)
        else format_rational(c.point)
        for c in cell.coords
    )
    weight = None
    if cell.weight is not None:
        by_name = dict(cell.weight.b)
        weight = (cell.weight.r, str(cell.weight.c),
                  tuple(by_name.get(old, 0) for old in cell.lambda_vars))
    return names, coords, format_formula(lam), weight


def _to_document(pres: Presentation, written: dict) -> dict:
    """to_document, where written maps each cell to its _written_cell fields
    and each param_domain formula to its text, so a caller that writes many
    snapshots formats each distinct cell and each distinct parameter domain
    once.  The document is built from fresh dicts and lists, so documents
    written with one table share no mutable object."""
    domain_text = written.get(pres.param_domain)
    if domain_text is None:
        domain_text = written[pres.param_domain] = format_formula(pres.param_domain)
    params = set(pres.param_vars)
    gens = []
    for coeff, cell in pres.generators:
        cell_fields = written.get(cell)
        if cell_fields is None:
            cell_fields = written[cell] = _written_cell(cell)
        captured = params.intersection(cell_fields[0])
        if captured:
            raise InputError(f"parameters {sorted(captured)} clash with lambda names")
        gens.append((format_rational(coeff), cell_fields))
    return {
        "prime": pres.ctx.p,
        "param_vars": list(pres.param_vars),
        "param_domain": domain_text,
        "generators": [
            {
                "coeff": coeff_text,
                "dims": len(coords),
                "coords": [
                    {"center": c[0], "level": c[1], "ac": c[2]} if isinstance(c, tuple)
                    else {"point": c}
                    for c in coords
                ],
                "lambda_formula": lam_text,
                "weight": None if weight is None else {"r": weight[0], "c": weight[1],
                                                       "b": list(weight[2])},
            }
            for coeff_text, (_, coords, lam_text, weight) in gens
        ],
    }


_JSON_NAMES = {Mapping: "object", int: "integer", str: "string", list: "list"}


def _typed(value, kind: type, what: str):
    """value when it has the JSON type kind; a boolean is not an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(
            f"{what} must be a JSON {_JSON_NAMES[kind]}, got {type(value).__name__}")
    return value


def _objects(entries, what: str) -> list[Mapping]:
    if not isinstance(entries, (list, tuple)) or not all(isinstance(e, Mapping) for e in entries):
        raise InputError(f"{what} must be a JSON list of objects")
    return list(entries)


def _missing(err: KeyError, where: str) -> InputError:
    """InputError naming the missing field (err's key) and the object that
    lacks it (where)."""
    return InputError(f"{where} has no field {err.args[0]!r}")


def from_document(doc: Mapping, where: str = "the presentation") -> Presentation:
    """Read one presentation document; errors name the document as where."""
    return _from_document(doc, {}, where)


def _same_entry(entry, old) -> bool:
    """Whether a generator entry reads as old, an entry read before: equal,
    and each number that reading takes from it a plain int, since == also
    holds between 1, true and 1.0, which the type checks tell apart."""
    if entry != old:
        return False
    weight = entry.get("weight")
    return (type(entry.get("dims", 0)) is int
            and all("point" in c or type(c["level"]) is type(c["ac"]) is int
                    for c in entry["coords"])
            and (weight is None or type(weight["r"]) is int
                 and all(type(v) is int for v in weight.get("b", ()))))


def _from_document(doc: Mapping, cells: dict, where: str = "the presentation",
                   previous: tuple[Sequence, Presentation] | None = None) -> Presentation:
    """Read one presentation document, which where describes in errors.
    cells lets a caller that reads many snapshots do the work of each
    distinct cell, formula and domain once; its entries differ in key shape:
    - a param_domain text: its parsed, simplified formula;
    - ("lambda_formula", text): that formula, parsed;
    - a generator's type-checked cell fields (coordinates as _written_cell
      gives them, lambda_formula text, weight as (r, c text, b tuple) or
      None): the BoxCell built from them;
    - (prime, param_vars): the cells that passed Presentation's per-cell
      checks over that base.
    previous is (generator entries, presentation) of the snapshot read
    before, if any: the entries that _same_entry finds equal to its entries,
    counted from the front and from the back by _common_ends, keep its
    (coefficient, cell) pairs, since an entry that was read once cannot
    fail, and a document equal to it in every entry and in its base is that
    presentation again.
    Only the entries in between are type-checked, parsed and built.  The
    header checks run for every document, and so does Presentation.validate
    for every new presentation, which skips only the cells that passed it
    before; a cell's texts are parsed when it is first built, after its
    generator's type checks, and a cell whose construction raises is never
    stored.  A missing required field is caught as the KeyError of its
    lookup, so reading checks no field twice."""
    doc = _typed(doc, Mapping, "a presentation")
    try:
        prime = doc["prime"]
    except KeyError as err:
        raise _missing(err, where) from None
    ctx = PAdicContext(_typed(prime, int, "prime"))
    param_vars = tuple(variable_name(_typed(v, str, "a parameter name"))
                       for v in _typed(doc.get("param_vars", []), list, "param_vars"))
    domain_text = _typed(doc.get("param_domain", "true"), str, "param_domain")
    param_domain = cells.get(domain_text)
    if param_domain is None:
        param_domain = cells[domain_text] = simplify(parse_domain(domain_text))
    entries = _objects(doc.get("generators", ()), "generators")
    old_entries, old = previous or ((), None)
    old_gens = old.generators if old is not None else ()
    front, back = _common_ends(entries, old_entries, _same_entry)
    if old is not None and front == len(entries) == len(old_entries) and (
            ctx, param_vars, param_domain) == (old.ctx, old.param_vars, old.param_domain):
        return old
    gens = list(old_gens[:front])
    for g in entries[front:len(entries) - back]:
        try:
            coord_docs, coeff = g["coords"], g["coeff"]
        except KeyError as err:
            raise _missing(err, f"generator {len(gens)} of {where}") from None
        coords: list[Union[tuple[str, int, int], str]] = []
        live = 0
        for entry in _objects(coord_docs, "coords"):
            if "point" in entry:
                coords.append(_typed(entry["point"], str, "point"))
                continue
            try:
                center, level, ac = entry["center"], entry["level"], entry["ac"]
            except KeyError as err:
                raise _missing(
                    err, f"coordinate {len(coords)} of generator {len(gens)} of {where}") from None
            live += 1
            coords.append((_typed(center, str, "center"), _typed(level, int, "level"),
                           _typed(ac, int, "ac")))
        if _typed(g.get("dims", len(coords)), int, "dims") != len(coords):
            raise InputError("dims does not match the coords list")
        lam_text = _typed(g.get("lambda_formula", "true"), str, "lambda_formula")
        weight_key = None
        wdoc = g.get("weight")
        if wdoc is not None:
            wdoc = _typed(wdoc, Mapping, "weight")
            b_list = [_typed(v, int, "a weight b entry")
                      for v in _typed(wdoc.get("b", []), list, "weight b")]
            if len(b_list) != live:
                raise InputError("weight b vector must match the lambda variables")
            try:
                r, c_text = wdoc["r"], wdoc["c"]
            except KeyError as err:
                raise _missing(err, f"the weight of generator {len(gens)} of {where}") from None
            weight_key = (_typed(r, int, "weight r"), _typed(c_text, str, "weight c"),
                          tuple(b_list))
        key = (tuple(coords), lam_text, weight_key)
        cell = cells.get(key)
        if cell is None:
            built = tuple(
                Coordinate(parse_rational(c[0]), c[1], c[2]) if isinstance(c, tuple)
                else DegenerateCoordinate(parse_rational(c))
                for c in coords
            )
            names = _canonical_lambda_names(live)
            weight = None
            if weight_key is not None:
                r, c_text, b = weight_key
                weight = Weight.make(r, parse_term(c_text), dict(zip(names, b)))
            lam = cells.get(("lambda_formula", lam_text))
            if lam is None:
                lam = cells["lambda_formula", lam_text] = parse(lam_text)
            cell = cells[key] = BoxCell(built, names, lam, weight)
        gens.append((parse_rational(_typed(coeff, str, "coeff")), cell))
    gens.extend(old_gens[len(old_gens) - back:])
    pres = Presentation(ctx, param_vars, param_domain, tuple(gens))
    checked = cells.get((ctx.p, param_vars), set())
    pres._validate(checked)
    cells[ctx.p, param_vars] = checked
    return pres


def certificate_to_document(cert: Certificate) -> dict:
    """The certificate's document; each distinct cell and each distinct
    parameter domain is formatted once, and no two snapshots share a
    mutable object."""
    written: dict = {}
    return {
        "steps": [
            {
                "rule": s.rule,
                "note": s.note,
                "before": _to_document(s.before, written),
                "after": _to_document(s.after, written),
            }
            for s in cert.steps
        ]
    }


def certificate_from_document(doc: Mapping) -> Certificate:
    """Read a certificate document.  Each snapshot is read against the one
    before it (see _from_document): a step's before that repeats the
    previous after is that after's Presentation, and any other snapshot
    reads only the generator entries between the ones it shares with its
    predecessor at its front and back.  Every snapshot shares one table
    besides, so each distinct cell is built and checked once, each distinct
    lambda formula and parameter domain parsed once, and a cell repeated in
    the document is one object."""
    doc = _typed(doc, Mapping, "a certificate")
    try:
        step_docs = doc["steps"]
    except KeyError as err:
        raise _missing(err, "the certificate") from None
    cells: dict = {}
    previous = None

    def read(snapshot, where: str) -> Presentation:
        nonlocal previous
        pres = _from_document(snapshot, cells, where, previous)
        previous = (snapshot.get("generators", ()), pres)
        return pres

    steps = []
    for s in _objects(step_docs, "steps"):
        i = len(steps)
        try:
            rule, before, after = s["rule"], s["before"], s["after"]
        except KeyError as err:
            raise _missing(err, f"step {i}") from None
        steps.append(CertificateStep(
            _typed(rule, str, "rule"), _typed(s.get("note", ""), str, "note"),
            read(before, f"the before of step {i}"), read(after, f"the after of step {i}")))
    return Certificate(tuple(steps))


# ---------------------------------------------------------------------------
# standard presentations


def unit_presentation(ctx: PAdicContext, param_vars: Sequence[str] = (),
                      param_domain: Formula = TRUE) -> Presentation:
    """The class of S x Zp^0, measure identically 1."""
    cell = BoxCell((), (), TRUE, None)
    return presentation(ctx, [(1, cell)], param_vars, param_domain)


def delta_presentation(ctx: PAdicContext, n: int, param_vars: Sequence[str] = (),
                       param_domain: Formula = TRUE) -> Presentation:
    """P(Delta_n): equal valuations along the diagonal, measure 1/(p^n - 1)."""
    names = _canonical_lambda_names(n)
    atoms = [geq0(LinearTerm.variable(names[0]))]
    for a, b in zip(names, names[1:]):
        atoms.append(eq0(LinearTerm.variable(a) - LinearTerm.variable(b)))
    cell = BoxCell(tuple(Coordinate(Fraction(0), 1, 1) for _ in range(n)),
                   names, simplify(conj(atoms)), None)
    return presentation(ctx, [(1, cell)], param_vars, param_domain)


def ball_presentation(ctx: PAdicContext, c: int, center: Fraction = Fraction(0),
                      param_vars: Sequence[str] = (),
                      param_domain: Formula = TRUE) -> Presentation:
    """The ball center + p^c Zp, measure p^(-c), as p-1 angular classes."""
    lam = geq0(LinearTerm.variable("l1") - c)
    gens = []
    for xi in range(1, ctx.p):
        cell = BoxCell((Coordinate(center, 1, xi),), ("l1",), lam, None)
        gens.append((1, cell))
    return presentation(ctx, gens, param_vars, param_domain)


def weighted_presentation(
    ctx: PAdicContext,
    lam: Formula,
    weight: Weight,
    param_vars: Sequence[str] = (),
    param_domain: Formula = TRUE,
) -> Presentation:
    """The carrier of a weighted Presburger sum: measure is sum of p^weight
    over the fiber of lam."""
    lambda_names = lambda_vars_of(lam, weight, param_vars)
    n = len(lambda_names)
    b = {name: dict(weight.b).get(name, 0) + weight.r for name in lambda_names}
    field = Weight.make(weight.r, weight.c + weight.r * n, b)
    cell = BoxCell(tuple(Coordinate(Fraction(0), 1, 1) for _ in range(n)),
                   lambda_names, lam, field)
    return presentation(ctx, [(1, cell)], param_vars, param_domain)
