"""Seeded random generators shared by the property tests and the acceptance
suite: Presburger formulas, finite-fiber families, and convergent
presentations."""

from __future__ import annotations

import random
from fractions import Fraction

from padicmeasure import (
    BoxCell,
    Coordinate,
    PAdicContext,
    Weight,
    presentation,
)
from padicmeasure.presburger import (
    DIV,
    EQ0,
    AndF,
    Atom,
    ExistsF,
    Formula,
    ForallF,
    LinearTerm,
    TRUE,
    conj,
    disj,
    divides,
    eq0,
    geq0,
    neg,
    parse,
)

FREE_NAMES = ("a", "b", "c")
QUANT_NAMES = ("x", "y", "z")


def random_term(rng: random.Random, scope, coeff_bound: int = 5) -> LinearTerm:
    count = rng.randint(1, min(2, len(scope)))
    chosen = rng.sample(list(scope), count)
    coeffs = {}
    for v in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        coeffs[v] = c
    return LinearTerm.make(coeffs, rng.randint(-coeff_bound, coeff_bound))


def random_atom(rng: random.Random, scope, coeff_bound: int = 5) -> Formula:
    t = random_term(rng, scope, coeff_bound)
    roll = rng.random()
    if roll < 0.75:
        op = rng.choice(("<", "<=", "=", ">=", ">", "!="))
        rhs = LinearTerm.constant(rng.randint(-coeff_bound, coeff_bound))
        if op == "<":
            return geq0(rhs - t - 1)
        if op == "<=":
            return geq0(rhs - t)
        if op == ">":
            return geq0(t - rhs - 1)
        if op == ">=":
            return geq0(t - rhs)
        if op == "=":
            return eq0(t - rhs)
        return neg(eq0(t - rhs))
    return divides(rng.randint(2, 5), t)


def _atom_mentioning(rng: random.Random, scope, var: str, coeff_bound: int) -> Formula:
    atom = random_atom(rng, scope, coeff_bound)
    inner = atom.arg if hasattr(atom, "arg") else atom
    if inner.term.coeff(var) != 0:
        return atom
    extra = LinearTerm.make({var: rng.choice((-2, -1, 1, 2))})
    return Atom(inner.kind, inner.term + extra, inner.modulus)


def random_formula(
    rng: random.Random,
    max_quantifiers: int = 3,
    max_free: int = 3,
    coeff_bound: int = 5,
) -> Formula:
    n_free = rng.randint(1, max_free)
    n_quant = rng.randint(0, max_quantifiers)
    free = list(FREE_NAMES[:n_free])
    budget = [n_quant]

    def gen(depth: int, scope: list[str]) -> Formula:
        roll = rng.random()
        if budget[0] > 0 and roll < 0.55:
            var = QUANT_NAMES[n_quant - budget[0]]
            budget[0] -= 1
            body = gen(depth, scope + [var])
            # make sure the bound variable genuinely occurs
            bound_atom = _atom_mentioning(rng, scope + [var], var, coeff_bound)
            mode = rng.random()
            if mode < 0.5:
                body = conj([body, bound_atom])
            elif mode < 0.8:
                body = disj([body, bound_atom])
            return ExistsF(var, body) if rng.random() < 0.6 else ForallF(var, body)
        if depth <= 0 or roll < 0.8:
            return random_atom(rng, scope, coeff_bound)
        if roll < 0.9:
            return conj([gen(depth - 1, scope), gen(depth - 1, scope)])
        if roll < 0.97:
            return disj([gen(depth - 1, scope), gen(depth - 1, scope)])
        return neg(gen(depth - 1, scope))

    out = gen(3, free)
    # spend most of any unused quantifier budget at the top
    while budget[0] > 0 and rng.random() < 0.8:
        var = QUANT_NAMES[n_quant - budget[0]]
        budget[0] -= 1
        bound_atom = _atom_mentioning(rng, free + [var], var, coeff_bound)
        out = conj([out, bound_atom]) if rng.random() < 0.6 else disj([out, bound_atom])
        out = ExistsF(var, out) if rng.random() < 0.6 else ForallF(var, out)
    return out


def random_finite_family(rng: random.Random):
    """(formula, lambda_vars, param_vars, domain) with finite fibers for all
    parameter points in the nonnegative orthant."""
    k = rng.choice((1, 1, 1, 2))
    params = ["s", "t"][:k]
    n = rng.choice((1, 1, 2))
    lams = [f"l{i + 1}" for i in range(n)]
    atoms = []
    for i, name in enumerate(lams):
        var = LinearTerm.variable(name)
        lower = rng.randint(-3, 3)
        if i > 0 and rng.random() < 0.4:
            atoms.append(geq0(var - LinearTerm.variable(lams[i - 1])))
        else:
            atoms.append(geq0(var - lower))
        roll = rng.random()
        if roll < 0.6:
            upper = LinearTerm.variable(rng.choice(params)) + rng.randint(0, 4)
        elif roll < 0.8 and i > 0:
            upper = LinearTerm.variable(lams[i - 1]) + rng.randint(0, 4)
        else:
            upper = LinearTerm.constant(lower + rng.randint(0, 8))
        atoms.append(geq0(upper - var))
        if rng.random() < 0.35:
            m = rng.randint(2, 4)
            atoms.append(divides(m, var - rng.randint(0, m - 1)))
    domain = parse(" /\\ ".join(f"{v} >= 0" for v in params))
    return conj(atoms), lams, params, domain


def grid_fiber_counts(formula: Formula, lams, params, high: int):
    """Fiber sizes of a random_finite_family formula at every parameter point
    of [0, high]^k, as a numpy int64 array indexed by the parameter values.

    Counts by brute force: the formula's atoms are evaluated with numpy int64
    over the box [-3, top]^n of lambda values, top = max(high, 7) + 4n, which
    holds every fiber.  random_finite_family bounds lambda 1 below by a
    constant in [-3, 3] and each later lambda i by that or by lambda i - 1,
    so every lambda value is at least -3.  It bounds lambda i above by a
    parameter plus at most 4, by lambda i - 1 plus at most 4, or by its
    constant lower bound plus at most 8, so at most 11; by induction lambda i
    is at most max(high, 7) + 4i.
    """
    # imported here: perfbench loads this module and would otherwise pay for numpy
    import numpy as np

    atoms = formula.args if isinstance(formula, AndF) else (formula,)
    top = max(high, 7) + 4 * len(lams)
    axes = [np.arange(high + 1, dtype=np.int64)] * (len(params) - 1)
    axes += [np.arange(-3, top + 1, dtype=np.int64)] * len(lams)
    grid = dict(zip(list(params[1:]) + list(lams),
                    np.meshgrid(*axes, indexing="ij", sparse=True)))
    shape = tuple(len(axis) for axis in axes)
    lam_axes = tuple(range(len(params) - 1, len(axes)))
    counts = np.zeros((high + 1,) * len(params), dtype=np.int64)
    # one parameter value at a time keeps the arrays small
    for first in range(high + 1):
        env = {params[0]: first, **grid}
        inside = np.ones(shape, dtype=bool)
        for atom in atoms:
            value = atom.term.const + sum(c * env[name] for name, c in atom.term.coeffs)
            if atom.kind == DIV:
                inside &= value % atom.modulus == 0
            elif atom.kind == EQ0:
                inside &= value == 0
            else:
                inside &= value >= 0
        counts[first] = inside.sum(axis=lam_axes)
    return counts


def random_unit(rng: random.Random, p: int, level: int = 1) -> int:
    while True:
        u = rng.randint(1, p**level - 1)
        if u % p:
            return u


def random_convergent_presentation(
    rng: random.Random,
    ctx: PAdicContext,
    allow_params: bool = True,
    max_generators: int = 2,
):
    params: list[str] = []
    domain = TRUE
    if allow_params and rng.random() < 0.7:
        params = ["s"]
        domain = parse("s >= 0")
    gens = []
    for _ in range(rng.randint(1, max_generators)):
        n = rng.randint(1, 2)
        lams = tuple(f"l{i + 1}" for i in range(n))
        atoms = []
        b = {}
        for i, name in enumerate(lams):
            var = LinearTerm.variable(name)
            lower = rng.randint(-2, 2)
            atoms.append(geq0(var - lower))
            roll = rng.random()
            if roll < 0.4 and params:
                atoms.append(geq0(LinearTerm.variable("s") + rng.randint(0, 3) - var))
            elif roll < 0.65:
                atoms.append(geq0(LinearTerm.constant(lower + rng.randint(0, 5)) - var))
            if rng.random() < 0.3:
                m = rng.randint(2, 3)
                atoms.append(divides(m, var - rng.randint(0, m - 1)))
            b[name] = rng.randint(-2, 0)  # keeps every tail direction contracting
        c = LinearTerm.constant(rng.randint(-2, 2))
        if params and rng.random() < 0.4:
            c = c + LinearTerm.make({"s": rng.choice((-1, 1))})
        weight = Weight.make(1, c, b)
        level = rng.choice((1, 1, 2))
        coords = tuple(
            Coordinate(Fraction(rng.randint(-2, 2)), level, random_unit(rng, ctx.p, level))
            for _ in range(n)
        )
        coeff = Fraction(rng.randint(1, 3), rng.choice((1, 2))) * rng.choice((1, 1, -1))
        gens.append((coeff, BoxCell(coords, lams, conj(atoms), weight)))
    return presentation(ctx, gens, params, domain)
