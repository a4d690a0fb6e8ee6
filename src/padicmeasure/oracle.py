"""Independent brute-force validators.

Nothing here reuses the closed-form summation path: measures are bracketed by
exact enumeration over a valuation window plus geometric tail bounds, and
quantified formulas are decided by exhaustive expansion over windows derived
from coefficient bounds.  These exist to catch bugs in the exact engine, so
they are deliberately simple and budgeted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import LinearTerm, Value, frac, power_fraction
from .measure import (
    MEASURE_ZERO,
    DivergesError,
    PAdicContext,
    Weight,
    cell_to_weighted_sum,
)
from .presburger import (
    AndF,
    Atom,
    DIV,
    ExistsF,
    FalseF,
    ForallF,
    Formula,
    NotF,
    OrF,
    ScopeError,
    TrueF,
    evaluate_on_grid,
    evaluate_qf,
    free_variables,
    qe,
    simplify,
    substitute,
)

from .ring import Presentation


class WindowTooSmallError(Exception):
    pass


class BudgetExceededError(Exception):
    pass


# Most integer points that one enumeration window may hold: the grid of a
# cell, or the scan and residue-class tails of a one-variable fiber.
GRID_BUDGET = 3 * 10**7

# Most cells that a brute-force table may span along one nesting path of
# quantifiers.  An atom's arrays span only its own variables' axes, so the
# path count overstates the work; at GRID_BUDGET the random cross-checks of
# qe would skip some of the formulas they check now.
TABLE_BUDGET = 5 * 10**7


class Bracket(Value):
    __slots__ = ("lower", "upper", "depth", "valuation_window")

    def __init__(self, lower: Fraction, upper: Fraction, depth: int, valuation_window: int):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "valuation_window", valuation_window)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __contains__(self, value) -> bool:
        return self.lower <= frac(value) <= self.upper

    def scale(self, k: Fraction) -> Bracket:
        lo, hi = self.lower * k, self.upper * k
        if k < 0:
            lo, hi = hi, lo
        return Bracket(lo, hi, self.depth, self.valuation_window)


# ---------------------------------------------------------------------------
# weighted window enumeration with geometric tails


def _weighted_box_bracket(
    lam: Formula,
    weight: LinearTerm,
    names: Sequence[str],
    window: int,
    ctx: PAdicContext,
    diverge_error,
    shadows: dict,
) -> tuple[Fraction, Fraction]:
    """(exact window sum, upper tail bound) for sum of p^weight over lam;
    shadows is a table for _shadow."""
    import numpy as np

    p = ctx.p
    n = len(names)
    if n == 0:
        if isinstance(_shadow(lam, None, shadows), TrueF):
            e = weight.evaluate({})
            if e.denominator != 1:
                raise WindowTooSmallError("non-integer weight on an assigned point")
            v = power_fraction(p, e)
            return v, Fraction(0)
        return Fraction(0), Fraction(0)

    if (2 * window + 1) ** n > GRID_BUDGET:
        raise BudgetExceededError(
            f"a window of {window} over {n} coordinates exceeds {GRID_BUDGET} points")
    values = np.arange(-window, window + 1, dtype=np.int64)
    axes = {v: values for v in names}
    mask = evaluate_on_grid(lam, axes)

    # exact window sum: weights are integers on the fiber, so collect the
    # integer exponent r*w per satisfying point and bin by value
    r = weight.denominator_lcm()
    scaled = np.full(mask.shape, int(weight.const * r), dtype=np.int64)
    for i, v in enumerate(names):
        coef = int(weight.coeff(v) * r)
        if coef:
            view = [1] * n
            view[i] = len(values)
            scaled = scaled + coef * values.reshape(view)
    exps = scaled[mask]
    total = Fraction(0)
    if exps.size:
        uniq, counts = np.unique(exps, return_counts=True)
        for e, cnt in zip(uniq.tolist(), counts.tolist()):
            if e % r != 0:
                raise WindowTooSmallError("weight not integral on the window")
            total += cnt * power_fraction(p, e // r)

    # tail bounds per direction and sign, using the exact coordinate ranges
    # so coupled cells (diagonals, shears) stay sharp
    tail = Fraction(0)
    p_const = power_fraction(p, math.ceil(weight.const))
    ranges = {v: _coordinate_range(lam, v, window, shadows) for v in names}
    for v in names:
        beta = weight.coeff(v)
        lo, hi = ranges[v]
        if lo is None and beta <= 0:
            raise diverge_error(v, -1)
        if hi is None and beta >= 0:
            raise diverge_error(v, 1)

    def line_mass(v: str) -> Fraction:
        lo, hi = ranges[v]
        return _line_mass(weight.coeff(v), lo, hi, p)

    factors = {v: line_mass(v) for v in names}
    for v in names:
        beta = weight.coeff(v)
        lo, hi = ranges[v]
        up_extends = hi is None or hi > window
        down_extends = lo is None or lo < -window
        for sign, ext in ((1, up_extends), (-1, down_extends)):
            if not ext:
                continue
            if sign > 0:
                piece = _line_mass(beta, window + 1, hi, p)
            else:
                piece = _line_mass(beta, lo, -window - 1, p)
            piece *= p_const
            for u in names:
                if u != v:
                    piece *= factors[u]
            tail += piece
    return total, tail


def _shadow(lam: Formula, var: str | None, shadows: dict) -> Formula:
    """The Cooper elimination of every free variable of lam but var, kept in
    shadows under (lam, var): it does not depend on the window, so a caller
    that brackets one fiber at several windows, or one cell twice, eliminates
    it once."""
    key = (lam, var)
    if key not in shadows:
        shadow = lam
        for v in sorted(free_variables(lam) - {var}):
            shadow = ExistsF(v, shadow)
        shadows[key] = qe(shadow)
    return shadows[key]


def _coordinate_range(lam: Formula, var: str, window: int, shadows: dict):
    """(min, max) of a coordinate over the fiber; None marks an unbounded or
    beyond-window end, and an empty window gives (window + 1, -window - 1).

    Everything is read off the fiber's shadow on var (see _shadow).  The
    shadow holds beyond the window on a side exactly when it holds at one of
    the first period points past the window or past a root there, since
    between two roots its truth repeats with the period.
    """
    shadow = _shadow(lam, var, shadows)
    roots, period = _roots_and_period(shadow, var)
    if 2 * period * (2 * len(roots) + 1) > GRID_BUDGET:
        raise BudgetExceededError(
            f"probing {var} at {len(roots)} roots, period {period}, exceeds {GRID_BUDGET} points")

    def beyond(sign: int) -> bool:
        # each run of integers on which no comparison changes starts past the
        # window or at a root's floor or the integer after it
        starts = {window + 1} | {math.floor(sign * r) + d for r in roots for d in (0, 1)}
        return any(evaluate_qf(shadow, {var: sign * (a + j)})
                   for a in sorted(starts) if a > window for j in range(period))

    below, above = beyond(-1), beyond(1)
    if below and above:
        return None, None
    inside = [t for t in range(-window, window + 1) if evaluate_qf(shadow, {var: t})]
    lo = None if below else (inside[0] if inside else window + 1)
    hi = None if above else (inside[-1] if inside else -window - 1)
    return lo, hi


def _roots_and_period(f: Formula, var: str) -> tuple[list[Fraction], int]:
    """The roots -k/c of the comparisons c*var + k of a one-variable formula,
    and the lcm of its moduli: between two roots its truth repeats with it."""
    roots = set()
    period = 1
    for atom in (g for g in _subformulas(f) if isinstance(g, Atom)):
        c = atom.term.coeff(var)
        if c == 0:
            continue
        if atom.kind == DIV:
            period = math.lcm(period, atom.modulus)
        else:
            roots.add(Fraction(-atom.term.const, c))
    return sorted(roots), period


def _line_mass(beta: Fraction, lo: int | None, hi: int | None, p: int) -> Fraction:
    """Upper bound for sum of p^(beta*x) over integer x in [lo, hi]; either
    end may be None (infinite).  Requires convergence on any infinite end."""
    if beta == 0:
        if lo is None or hi is None:
            raise ValueError("flat weight over an unbounded line")
        return Fraction(max(0, hi - lo + 1))
    if lo is not None and hi is not None and lo > hi:
        return Fraction(0)
    if beta < 0:
        if lo is None:
            raise ValueError("divergent weight over an unbounded line")
        den = beta.denominator
        head = power_fraction(p, math.ceil(beta * lo))
        if hi is not None and beta.denominator == 1:
            # exact finite geometric sum
            q = power_fraction(p, beta)
            return power_fraction(p, beta * lo) * (1 - q ** (hi - lo + 1)) / (1 - q)
        return head * den / (1 - power_fraction(p, beta * den))
    mirrored = _line_mass(-beta,
                          None if hi is None else -hi,
                          None if lo is None else -lo, p)
    return mirrored


def partial_sum(
    lam: Formula,
    weight: Weight,
    point: Mapping[str, int],
    radius: int,
    ctx: PAdicContext,
) -> Bracket:
    """Bracket sum of p^weight over the fiber at a concrete parameter point.

    lower = exact sum over the window, upper adds geometric tail bounds;
    raises DivergesError when an unbounded direction has a nonnegative
    exponent coefficient.
    """
    lam_inst, waff, names = _instantiate(lam, weight, point)
    total, tail = _weighted_box_bracket(lam_inst, waff, names, radius, ctx, DivergesError, {})
    return Bracket(total, total + tail, radius, radius)


def _instantiate(lam: Formula, weight: Weight, point: Mapping[str, int]):
    names = tuple(sorted({n for n, _ in weight.b}
                         | (set(free_variables(lam)) - set(point))))
    lam_inst = lam
    for v, val in point.items():
        lam_inst = substitute(lam_inst, v, LinearTerm.constant(int(val)))
    waff = weight.affine()
    for v, val in point.items():
        waff = waff.substitute(v, LinearTerm.constant(int(val)))
    return simplify(lam_inst), waff, names


def _exact_1d_bracket(
    lam: Formula, weight: LinearTerm, var: str, window: int, ctx: PAdicContext
) -> Fraction:
    """Exact sum of p^weight over a one-variable fiber: enumerate up to the
    last constraint boundary, then sum each residue class tail exactly."""
    p = ctx.p
    roots, modulus = _roots_and_period(lam, var)
    v_st = max(window, max((math.ceil(abs(r)) for r in roots), default=0) + 1)
    if 2 * v_st + 1 + 2 * modulus > GRID_BUDGET:
        raise BudgetExceededError(
            f"scanning {var} to {v_st} with modulus {modulus} exceeds {GRID_BUDGET} points")
    beta = weight.coeff(var)
    total = Fraction(0)
    for x in range(-v_st, v_st + 1):
        if evaluate_qf(lam, {var: x}):
            e = weight.evaluate({var: x})
            if e.denominator != 1:
                raise WindowTooSmallError("weight not integral on the fiber")
            total += power_fraction(p, e)
    for sign in (1, -1):
        step = beta * modulus * sign
        for j in range(modulus):
            a = sign * (v_st + 1 + j)
            if not evaluate_qf(lam, {var: a}):
                continue
            if step >= 0:
                raise WindowTooSmallError(
                    f"no tail bound along {var} towards {'+' if sign > 0 else '-'}inf")
            e = weight.evaluate({var: a})
            if e.denominator != 1 or (step).denominator != 1:
                raise WindowTooSmallError("weight not integral on the tail")
            total += power_fraction(p, e) / (1 - power_fraction(p, step))
    return total


def truncated_measure(
    pres: Presentation,
    point: Mapping[str, int],
    depth: int = 8,
    window: int = 12,
) -> Bracket:
    """Bracket the exact measure of a presentation fiber by enumeration.

    Zero- and one-dimensional cells are summed exactly (their tails are
    unions of full residue classes past the last constraint boundary); higher
    cells get window sums plus geometric tail bounds, and the window grows
    until the bracket width is at most p^(n - depth).  WindowTooSmallError is
    raised when a tail cannot be bounded or the target is unreachable, and
    BudgetExceededError when a window would hold more than GRID_BUDGET points.
    One table of shadows serves the whole call, so each (fiber, coordinate)
    is eliminated once, whatever the windows and repeated generators.
    """
    ctx = pres.ctx
    p = ctx.p
    n_max = max((len(c.lambda_vars) for _, c in pres.generators), default=0)
    target = power_fraction(p, n_max - depth)
    v_eff = max(1, window)
    last_error: WindowTooSmallError | None = None
    shadows: dict = {}
    for _ in range(10):
        lower = Fraction(0)
        upper = Fraction(0)
        try:
            for coeff, cell in pres.generators:
                converted = cell_to_weighted_sum(cell, ctx)
                if converted is MEASURE_ZERO:
                    continue
                lam, weight = converted
                lam_inst, waff, names = _instantiate(lam, weight, point)
                if len(names) <= 1:
                    if names:
                        value = _exact_1d_bracket(lam_inst, waff, names[0], v_eff, ctx)
                    else:
                        value, _ = _weighted_box_bracket(
                            lam_inst, waff, (), v_eff, ctx, _window_error, shadows)
                    lower += coeff * value
                    upper += coeff * value
                    continue
                total, tail = _weighted_box_bracket(
                    lam_inst, waff, names, v_eff, ctx, _window_error, shadows)
                b = Bracket(total, total + tail, depth, v_eff).scale(coeff)
                lower += b.lower
                upper += b.upper
        except WindowTooSmallError as err:
            # a direction reached past the window; a larger window may still
            # resolve it as bounded, so grow before giving up
            last_error = err
            bracket = None
        else:
            bracket = Bracket(lower, upper, depth, v_eff)
            if bracket.width <= target:
                return bracket
        v_eff = v_eff * 2
        if (2 * v_eff + 1) ** max(1, n_max) > GRID_BUDGET:
            break
    if last_error is not None:
        raise last_error
    raise WindowTooSmallError(
        f"width target p^({n_max} - {depth}) unreachable within the growth budget")


def _window_error(variable: str, sign: int) -> WindowTooSmallError:
    arrow = "+inf" if sign > 0 else "-inf"
    return WindowTooSmallError(f"no tail bound along {variable} towards {arrow}")


# ---------------------------------------------------------------------------
# brute-force quantifier elimination tables


class BoxTable(Value):
    """Finite truth table of a formula over [-bound, bound]^n."""

    __slots__ = ("variables", "bound", "values")

    def __init__(self, variables: tuple[str, ...], bound: int, values: np.ndarray):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "values", values)

    def on_grid(self, axes: Mapping[str, np.ndarray]) -> np.ndarray:
        import numpy as np

        names = list(axes.keys())
        shape = tuple(len(axes[v]) for v in names)
        index = []
        for v in self.variables:
            pos = names.index(v)
            vals = np.asarray(axes[v], dtype=np.int64) + self.bound
            if vals.size and (vals.min() < 0 or vals.max() > 2 * self.bound):
                raise ValueError("grid exceeds the table bound")
            view = [1] * len(names)
            view[pos] = shape[pos]
            index.append(vals.reshape(view))
        if not index:
            return np.broadcast_to(self.values, shape).copy()
        return np.broadcast_to(self.values[tuple(index)], shape).copy()


def _quantifier_depth(f: Formula) -> int:
    if isinstance(f, (TrueF, FalseF, Atom)):
        return 0
    if isinstance(f, NotF):
        return _quantifier_depth(f.arg)
    if isinstance(f, (AndF, OrF)):
        return max(_quantifier_depth(a) for a in f.args)
    return 1 + _quantifier_depth(f.body)


def _subformulas(f: Formula):
    """f and every formula inside it, in preorder."""
    yield f
    if isinstance(f, NotF):
        yield from _subformulas(f.arg)
    elif isinstance(f, (AndF, OrF)):
        for a in f.args:
            yield from _subformulas(a)
    elif isinstance(f, (ExistsF, ForallF)):
        yield from _subformulas(f.body)


def witness_ranges(f: Formula, bound: int) -> dict[str, int]:
    """Sound per-quantifier windows from coefficient bounds.

    Iterates R(v) = delta_v + 1 + max over atoms of (|const| + sum of
    |coef|*R(other)) / |coef_v| to a post-fixpoint, keyed by name: ScopeError
    when a bound name of f also occurs free (brute_force_qe renames such
    names apart first), and BudgetExceededError when the iteration does not
    stabilize (mutually unbounded quantifiers).
    """
    atoms = [g for g in _subformulas(f) if isinstance(g, Atom)]
    qvars = [g.var for g in _subformulas(f) if isinstance(g, (ExistsF, ForallF))]
    free = free_variables(f)
    both = sorted(free.intersection(qvars))
    if both:
        raise ScopeError(f"variable {both[0]!r} occurs both free and bound")
    ranges: dict[str, int] = {v: bound for v in free}
    delta: dict[str, int] = {}
    for v in qvars:
        d = 1
        for a in atoms:
            if a.kind == DIV and a.term.coeff(v) != 0:
                d = math.lcm(d, a.modulus)
        delta[v] = d
        ranges[v] = 0

    def step() -> dict[str, int]:
        out = dict(ranges)
        for v in qvars:
            m = 0
            for a in atoms:
                c = a.term.coeff(v)
                if c == 0:
                    continue
                acc = abs(a.term.const)
                for n2, c2 in a.term.coeffs:
                    if n2 != v:
                        acc += abs(c2) * ranges[n2]
                m = max(m, -(-acc // abs(c)))
            out[v] = delta[v] + 1 + m
        return out

    for _ in range(8):
        new = step()
        if new == ranges:
            return {v: ranges[v] for v in qvars}
        ranges = new
    # verify post-fixpoint anyway (one extra round must not grow)
    if step() == ranges:
        return {v: ranges[v] for v in qvars}
    raise BudgetExceededError("quantifier windows do not stabilize")


def _rename_bound_apart(f: Formula, free: frozenset[str]) -> Formula:
    """f with each quantifier over a name in free renamed to a name that f
    does not use, so that every name has one meaning and one window."""
    used = set(free) | {g.var for g in _subformulas(f) if isinstance(g, (ExistsF, ForallF))}

    def rename(g: Formula) -> Formula:
        if isinstance(g, NotF):
            return NotF(rename(g.arg))
        if isinstance(g, (AndF, OrF)):
            return type(g)(tuple(rename(a) for a in g.args))
        if not isinstance(g, (ExistsF, ForallF)):
            return g
        # inner binders first: the body then binds g.var nowhere
        body = rename(g.body)
        if g.var not in free:
            return type(g)(g.var, body)
        k = 1
        while f"{g.var}_{k}" in used:
            k += 1
        new = f"{g.var}_{k}"
        used.add(new)
        return type(g)(new, substitute(body, g.var, LinearTerm.variable(new)))

    return rename(f)


def brute_force_qe(f: Formula, bound: int) -> BoxTable:
    """Exhaustive truth table of f over [-bound, bound]^n for its n free
    variables, each quantifier ranging over its window from witness_ranges;
    the reference for qe in equivalent_on_box checks.

    A bound name that also occurs free is renamed apart first.
    BudgetExceededError past quantifier depth 3 or 3 free variables, when
    the windows do not stabilize, or when one nesting path of quantifiers
    spans more than TABLE_BUDGET cells.
    """
    import numpy as np

    if _quantifier_depth(f) > 3:
        raise BudgetExceededError("quantifier depth exceeds 3")
    fvars = tuple(sorted(free_variables(f)))
    if len(fvars) > 3:
        raise BudgetExceededError("more than 3 free variables")
    f = _rename_bound_apart(f, frozenset(fvars))
    axes = {v: np.arange(-bound, bound + 1) for v in fvars}
    for v, r in witness_ranges(f, bound).items():
        axes[v] = np.arange(-r, r + 1)

    def path_cells(g: Formula) -> int:
        if isinstance(g, (TrueF, FalseF, Atom)):
            return 1
        if isinstance(g, NotF):
            return path_cells(g.arg)
        if isinstance(g, (AndF, OrF)):
            return max(path_cells(a) for a in g.args)
        return len(axes[g.var]) * path_cells(g.body)

    if (2 * bound + 1) ** len(fvars) * path_cells(f) > TABLE_BUDGET:
        raise BudgetExceededError("expansion exceeds the cell budget")
    return BoxTable(fvars, bound, evaluate_on_grid(f, axes))
