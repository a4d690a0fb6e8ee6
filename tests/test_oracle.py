import json
import math
import random
from fractions import Fraction

import pytest

from padicmeasure import oracle
from padicmeasure.cli import run
from padicmeasure.measure import PAdicContext, Weight
from padicmeasure.oracle import (
    GRID_BUDGET,
    BudgetExceededError,
    WindowTooSmallError,
    brute_force_qe,
    truncated_measure,
    witness_ranges,
)
from padicmeasure.presburger import (
    LinearTerm,
    ScopeError,
    equivalent_on_box,
    evaluate_qf,
    parse,
    qe,
)
from padicmeasure.ring import (
    add,
    ball_presentation,
    delta_presentation,
    measure_function,
    multiply,
    scalar_mul,
    to_document,
    unit_presentation,
    weighted_presentation,
)

from generators import random_convergent_presentation, random_formula

CTX2 = PAdicContext(2)
CTX3 = PAdicContext(3)


def test_bracket_unit_and_balls_are_exact():
    assert truncated_measure(unit_presentation(CTX2), {}).width == 0
    b = truncated_measure(ball_presentation(CTX3, 1, center=Fraction(1)), {})
    assert b.lower == Fraction(1, 3) == b.upper
    b0 = truncated_measure(ball_presentation(CTX2, 0), {})
    assert b0.lower == 1 == b0.upper


def test_bracket_delta_contains_exact_value():
    for p in (2, 3):
        ctx = PAdicContext(p)
        for n in (1, 2, 3, 4):
            b = truncated_measure(delta_presentation(ctx, n), {}, depth=8, window=12)
            assert Fraction(1, p**n - 1) in b
            assert b.width <= Fraction(p) ** (n - 8)


def test_bracket_handles_negative_coefficients():
    mix = add(ball_presentation(CTX2, 0),
              scalar_mul(Fraction(-1, 2), delta_presentation(CTX2, 2)))
    value = measure_function(mix).evaluate({})
    b = truncated_measure(mix, {})
    assert value in b


def test_bracket_window_too_small_on_divergence():
    bad = weighted_presentation(CTX2, parse("l >= 0"), Weight.constant(0))
    with pytest.raises(WindowTooSmallError):
        truncated_measure(bad, {})


def test_coordinate_ranges_read_one_shadow_per_coordinate(sat_queries, monkeypatch):
    # each coordinate's range, beyond-window ends included, comes from one
    # Cooper elimination of the other coordinates; the spy sits on the
    # oracle's binding only, so qe's own recursion is not counted
    coordinates, shadows = [], []
    real_bracket, real_qe = oracle._weighted_box_bracket, oracle.qe

    def bracket(lam, weight, names, *rest):
        coordinates.append(len(names))
        return real_bracket(lam, weight, names, *rest)

    def shadow(f):
        shadows.append(f)
        return real_qe(f)

    monkeypatch.setattr(oracle, "_weighted_box_bracket", bracket)
    monkeypatch.setattr(oracle, "qe", shadow)
    for ctx in (CTX2, CTX3):
        truncated_measure(delta_presentation(ctx, 2), {})
    assert not sat_queries["is_satisfiable"]
    assert 0 < len(shadows) == sum(coordinates)


def test_truncated_measure_eliminates_each_shadow_once(monkeypatch):
    # a shadow depends on the fiber and the coordinate only: one cell twice,
    # bracketed at windows 12 and 24, asks for it once per coordinate
    coordinates, shadows = [], []
    real_bracket, real_qe = oracle._weighted_box_bracket, oracle.qe

    def bracket(lam, weight, names, *rest):
        coordinates.append(len(names))
        return real_bracket(lam, weight, names, *rest)

    def shadow(f):
        shadows.append(f)
        return real_qe(f)

    monkeypatch.setattr(oracle, "_weighted_box_bracket", bracket)
    monkeypatch.setattr(oracle, "qe", shadow)
    delta = delta_presentation(CTX2, 2)
    got = truncated_measure(add(delta, delta), {}, depth=16)
    assert got.valuation_window == 24 and Fraction(2, 3) in got
    assert coordinates == [2, 2, 2, 2] and len(shadows) == 2


W12 = Weight.make(1, LinearTerm.constant(0), {"l1": -1, "l2": -1})


# the parent's answers on fibers whose constants lie far past any window: a
# design that scans every point up to the largest constant runs out of
# budget on the first and crawls on the second
@pytest.mark.parametrize("text", [
    "l1 >= 1000000000 /\\ l2 >= 0",
    "l1 - l2 >= 100000 /\\ l2 >= 0 /\\ 3 | l1 + l2",
])
def test_bracket_probes_past_far_roots(text):
    b = truncated_measure(weighted_presentation(CTX2, parse(text), W12), {})
    assert (b.lower, b.upper) == (0, Fraction(8193, 16777216))


@pytest.mark.parametrize("text, direction", [
    ("40 <= l1 /\\ l1 <= 60 /\\ 7 | l1 - 3 /\\ 0 <= l2 /\\ l2 <= 1", -1),
    ("l1 >= 40 /\\ 7 | l1 - 3 /\\ 0 <= l2 /\\ l2 <= l1", -1),
    ("l1 <= -40 /\\ 5 | l1 + l2 /\\ 0 <= l2 /\\ l2 <= 2", 1),
])
def test_fiber_beyond_the_window_only_behind_a_root_and_a_modulus(text, direction):
    # no point of the fiber lies within one period of the window's edge, so
    # only a probe from the root on finds the tail
    weight = Weight.make(1, LinearTerm.constant(0), {"l1": direction, "l2": -1})
    pres = weighted_presentation(CTX2, parse(text), weight)
    b = truncated_measure(pres, {})
    assert b.upper > 0 and measure_function(pres).evaluate({}) in b


def test_zero_coordinate_cell_with_a_quantified_formula():
    pres = weighted_presentation(CTX2, parse("E x. 2*x = s"), Weight.constant(0),
                                 param_vars=("s",))
    assert [truncated_measure(pres, {"s": s}).lower for s in (3, 4)] == [0, 1]
    assert [truncated_measure(pres, {"s": s}).upper for s in (3, 4)] == [0, 1]


@pytest.fixture
def grid_budget_spies(monkeypatch):
    """Fail as soon as the oracle starts a grid of more than GRID_BUDGET
    points, or scans a point that no window within the budget holds, so an
    unchecked window fails fast instead of filling memory."""
    real_grid, real_qf = oracle.evaluate_on_grid, oracle.evaluate_qf

    def grid(f, axes):
        if math.prod(len(values) for values in axes.values()) > GRID_BUDGET:
            pytest.fail("grid over the budget")
        return real_grid(f, axes)

    def qf(f, assignment):
        if any(2 * abs(v) + 1 > GRID_BUDGET for v in assignment.values()):
            pytest.fail("scan beyond the budget")
        return real_qf(f, assignment)

    monkeypatch.setattr(oracle, "evaluate_on_grid", grid)
    monkeypatch.setattr(oracle, "evaluate_qf", qf)


# over the budget: the grid of a first window, and the scan of a one-variable
# cell up to its constraint boundary
OVER_BUDGET = [
    (delta_presentation(CTX2, 2), 100000),
    (weighted_presentation(CTX2, parse("l >= 1000000000"),
                           Weight.make(1, LinearTerm.constant(0), {"l": -1})), 12),
]


@pytest.mark.parametrize("pres, window", OVER_BUDGET, ids=["grid", "scan"])
def test_bracket_stops_at_the_grid_budget(grid_budget_spies, pres, window):
    with pytest.raises(BudgetExceededError):
        truncated_measure(pres, {}, window=window)


@pytest.mark.parametrize("pres, window", OVER_BUDGET, ids=["grid", "scan"])
def test_oracle_command_stops_at_the_grid_budget(grid_budget_spies, tmp_path, capsys,
                                                 pres, window):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(to_document(pres)))
    code = run(["oracle", str(path), "-p", "2", "--at", "--window", str(window)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_containment_random_presentations():
    rng = random.Random(77)
    for _ in range(40):
        p = rng.choice((2, 3))
        ctx = PAdicContext(p)
        pres = random_convergent_presentation(rng, ctx, max_generators=1)
        mf = measure_function(pres)
        points = [{}] if not pres.param_vars else [
            {"s": rng.randint(0, 20)} for _ in range(5)
        ]
        for point in points:
            bracket = truncated_measure(pres, point, depth=8, window=12)
            assert mf.evaluate(point) in bracket, (pres, point)


def test_shrinkage_in_depth_and_window():
    sq = multiply(ball_presentation(CTX2, 0), ball_presentation(CTX2, 0))
    assert truncated_measure(sq, {}, 6, 16).width <= truncated_measure(sq, {}, 6, 8).width
    assert truncated_measure(sq, {}, 9, 8).width <= truncated_measure(sq, {}, 4, 8).width
    n = 2
    assert truncated_measure(sq, {}, 8, 12).width <= Fraction(2) ** (n - 8)


def test_brute_force_qe_examples():
    t = brute_force_qe(parse("E x. a = 2*x"), 10)
    assert t.variables == ("a",)
    assert t.values[10] and not t.values[11]  # a = 0 even, a = 1 odd
    empty = brute_force_qe(parse("false"), 5)
    assert not empty.values.any()
    with pytest.raises(BudgetExceededError):
        brute_force_qe(parse("E a. E b. E c. E d. a + b + c + d = 0"), 5)
    for text in [
        # products that leave int64
        "2000000000000000000*a + b >= 0",
        # a bound name that also occurs free, under either quantifier
        "x >= 0 /\\ (E x. x = 2*y)",
        "x >= 1 /\\ (A x. x != y)",
        # the free x keeps its own window beside the bound x's
        "(E y. y = x) /\\ (E x. x = 0)",
    ]:
        f = parse(text)
        assert equivalent_on_box(qe(f), brute_force_qe(f, 8), 8), text
    big = parse("2000000000000000000*a + b >= 0")
    assert brute_force_qe(big, 8).values[16, 8] == evaluate_qf(big, {"a": 8, "b": 0})


def test_brute_force_qe_free_variable_limit():
    f = parse("a + b + c + d >= 0")
    with pytest.raises(BudgetExceededError):
        brute_force_qe(f, 3)


def test_witness_ranges_cover_divisibility():
    r = witness_ranges(parse("E x. 3 | x - a"), 5)
    assert r["x"] >= 3  # at least the modulus


@pytest.mark.parametrize("text", ["x >= 0 /\\ (E x. x = 2*y)", "(E y. y = x) /\\ (E x. x = 0)"])
def test_witness_ranges_reject_a_name_both_free_and_bound(text):
    # keyed by name, the windows would give both x's one window, or fail to
    # stabilize; brute_force_qe renames the bound x apart first
    with pytest.raises(ScopeError, match="variable 'x' occurs both free and bound"):
        witness_ranges(parse(text), 8)
    f = parse(text)
    assert equivalent_on_box(qe(f), brute_force_qe(f, 8), 8)


def test_brute_matches_qe_randomized():
    rng = random.Random(20260807)
    checked = 0
    while checked < 30:
        f = random_formula(rng)
        try:
            table = brute_force_qe(f, 8)
        except BudgetExceededError:
            continue
        assert equivalent_on_box(qe(f), table, 8)
        checked += 1


def test_box_table_on_grid_alignment():
    import numpy as np

    t = brute_force_qe(parse("2 | a"), 4)
    axes = {"a": np.arange(-4, 5), "b": np.arange(-2, 3)}
    grid = t.on_grid(axes)
    assert grid.shape == (9, 5)
    assert grid[0, 0] and not grid[1, 0]  # a = -4 even, a = -3 odd
