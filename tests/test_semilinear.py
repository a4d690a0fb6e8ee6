import itertools
import random

import numpy as np
import pytest

from padicmeasure import semilinear
from padicmeasure.presburger import (
    TRUE,
    evaluate_on_grid,
    evaluate_qf,
    parse,
)
from padicmeasure.semilinear import (
    CappedError,
    InfiniteFiberError,
    NotRectilinearizableError,
    OutOfDomainError,
    count_parametric,
    enumerate_fiber,
    rectilinearize,
    to_cells,
    triangulate,
)

from generators import random_atom, random_finite_family


def cells_of(text, lams, params):
    return to_cells(parse(text), lams, params)


def test_to_cells_conjunctive_stays_single():
    cells = cells_of("0 <= l /\\ l < s /\\ 2 | l - 1", ["l"], ["s"])
    assert len(cells) == 1
    kinds = sorted(a.kind for a in cells[0].constraints)
    assert kinds == ["div", "geq0", "geq0"]


def test_to_cells_disjunction_becomes_disjoint():
    cells = cells_of("l >= 0 \\/ l <= 0", ["l"], [])
    assert len(cells) == 2
    for lam in range(-20, 21):
        hits = sum(c.contains({"l": lam}, {}) for c in cells)
        assert hits == 1


def test_to_cells_false_is_empty():
    assert cells_of("false", ["l"], []) == []


def test_cells_disjoint_and_complete_randomized():
    rng = random.Random(1234)
    lam_values = np.arange(-15, 16)
    s_values = np.arange(-10, 11)
    for _ in range(500):
        parts = [random_atom(rng, ["l1", "l2", "s"], 3) for _ in range(rng.randint(1, 3))]
        from padicmeasure.presburger import conj, disj

        f = disj([conj(parts[: max(1, len(parts) - 1)]), parts[-1]])
        cells = to_cells(f, ["l1", "l2"], ["s"])
        axes = {"l1": lam_values, "l2": lam_values, "s": s_values}
        want = evaluate_on_grid(f, axes)
        got = np.zeros_like(want, dtype=np.int64)
        for c in cells:
            got += evaluate_on_grid(c.formula(), axes).astype(np.int64)
        # exactly one cell claims each satisfying point, none elsewhere
        assert (got == want.astype(np.int64)).all()


def test_count_linear_family():
    pp = count_parametric(cells_of("0 <= l /\\ l < s", ["l"], ["s"]), parse("s >= 0"))
    for s in range(0, 41):
        assert pp.evaluate({"s": s}) == s


def test_count_congruence_family():
    pp = count_parametric(
        cells_of("0 <= l /\\ l < s /\\ 2 | l", ["l"], ["s"]), parse("s >= 0")
    )
    for s in range(0, 41):
        assert pp.evaluate({"s": s}) == (s + 1) // 2


def test_count_infinite_fiber():
    with pytest.raises(InfiniteFiberError) as err:
        count_parametric(cells_of("l >= s", ["l"], ["s"]), TRUE)
    assert err.value.variable == "l" and err.value.direction == 1


def test_count_ignores_infinite_fibers_outside_the_domain():
    cells = cells_of("0 <= l /\\ (s < 0 \\/ l < s)", ["l"], ["s"])
    pp = count_parametric(cells, parse("s >= 0"))
    assert [pp.evaluate({"s": s}) for s in range(6)] == list(range(6))


def test_count_out_of_domain():
    pp = count_parametric(cells_of("0 <= l /\\ l < s", ["l"], ["s"]), parse("s >= 0"))
    with pytest.raises(OutOfDomainError):
        pp.evaluate({"s": -3})


def test_count_guards_disjoint_and_cover():
    pp = count_parametric(
        cells_of("0 <= l /\\ l < s /\\ 3 | l - 1", ["l"], ["s"]), parse("s >= 0")
    )
    for s in range(0, 41):
        hits = [g for g, _ in pp.pieces if evaluate_qf(g, {"s": s})]
        assert len(hits) == 1


def test_enumerate_fiber_examples():
    assert enumerate_fiber(cells_of("0 <= l /\\ l < 3", ["l"], ["s"]), {"s": 7}) == [
        (0,), (1,), (2,)
    ]
    assert enumerate_fiber(
        cells_of("0 <= l /\\ l < s /\\ 2 | l", ["l"], ["s"]), {"s": 5}
    ) == [(0,), (2,), (4,)]
    with pytest.raises(CappedError):
        enumerate_fiber(cells_of("l >= 0", ["l"], []), {}, cap=10)


def test_rectilinearize_examples():
    p1 = rectilinearize(cells_of("l >= 3", ["l"], []))
    assert len(p1) == 1 and p1[0].generators == ((1,),)
    assert p1[0].base[0].const == 3

    p2 = rectilinearize(cells_of("l >= 0 /\\ 2 | l", ["l"], []))
    assert p2[0].generators == ((2,),)
    assert p2[0].base[0].const == 0

    p3 = rectilinearize(cells_of("0 <= l1 /\\ l1 <= l2", ["l1", "l2"], []))
    assert len(p3) == 1
    assert p3[0].generators == ((1, 0), (1, 1))


def test_rectilinearize_membership_randomized():
    rng = random.Random(77)
    grid = range(-8, 15)
    for _ in range(40):
        f, lams, params, domain = random_finite_family(rng)
        if params != ["s"]:
            continue
        cells = to_cells(f, lams, params)
        try:
            pieces = rectilinearize(cells)
        except NotRectilinearizableError:
            continue  # parametric widths are out of scope for pieces
        for s in (0, 3, 7):
            for point in _grid_points(lams, grid):
                want = evaluate_qf(f, {**point, "s": s})
                got = sum(p.contains(point, {"s": s}) for p in pieces)
                assert got == (1 if want else 0), (f, point, s)


def _grid_points(lams, grid):
    if len(lams) == 1:
        return [{lams[0]: v} for v in grid]
    return [{lams[0]: v, lams[1]: w} for v in grid for w in grid]


def test_rectilinear_injectivity_random_pairs():
    rng = random.Random(9)
    pieces = rectilinearize(
        cells_of("0 <= l1 /\\ l1 <= l2 /\\ 3 | l2 - l1", ["l1", "l2"], [])
    )
    for piece in pieces:
        m = piece.rank
        if m == 0:
            continue
        for _ in range(1000):
            mu1 = tuple(rng.randint(0, 30) for _ in range(m))
            mu2 = tuple(rng.randint(0, 30) for _ in range(m))
            if mu1 == mu2:
                continue
            assert piece.image_point(mu1, {}) != piece.image_point(mu2, {})


def test_parametric_width_not_piece_expressible():
    with pytest.raises(NotRectilinearizableError):
        rectilinearize(cells_of("0 <= l /\\ l < s", ["l"], ["s"]))


def test_counting_matches_enumeration_randomized():
    rng = random.Random(4321)
    for _ in range(12):
        f, lams, params, domain = random_finite_family(rng)
        cells = to_cells(f, lams, params)
        pp = count_parametric(cells, domain, params)
        points = (
            [{params[0]: s} for s in range(0, 21)]
            if len(params) == 1
            else [{params[0]: s, params[1]: t} for s in range(0, 9) for t in range(0, 9)]
        )
        for point in points:
            assert pp.evaluate(point) == len(enumerate_fiber(cells, point)), (f, point)


def test_towers_partition_the_cell():
    # enumerate_fiber lists each tower's points, duplicates kept; the fiber
    # lies inside the box, so equality with the brute-force list means every
    # cell point is in exactly one tower and no tower holds anything else
    cells = cells_of("0 <= l1 /\\ l1 <= l2 /\\ l2 < s /\\ 2 | l2", ["l1", "l2"], ["s"])
    for s in (0, 1, 4, 7):
        box = [
            (l1, l2)
            for l1 in range(-3, 10)
            for l2 in range(-3, 10)
            if evaluate_qf(cells[0].formula(), {"l1": l1, "l2": l2, "s": s})
        ]
        assert enumerate_fiber(cells, {"s": s}) == box


def _families(seed, count):
    rng = random.Random(seed)
    return [random_finite_family(rng) for _ in range(count)]


# seed 707 draws the count benchmark's families; its family 4 has two
# parameters and 28 count pieces.  Families 446, 618 and 787 of that seed
# hold two congruences each, whose residue branches once took seconds to
# triangulate
SEED_707 = _families(707, 800)
SLOW_FAMILIES = [SEED_707[i] for i in (446, 618, 787)]
COUNT_FAMILIES = SEED_707[:8] + _families(2024, 8) + SLOW_FAMILIES


@pytest.mark.parametrize("index", range(len(COUNT_FAMILIES)))
def test_count_pieces_partition_the_domain_and_match_enumeration(index):
    f, lams, params, domain = COUNT_FAMILIES[index]
    cells = to_cells(f, lams, params)
    pp = count_parametric(cells, domain, params)
    for values in itertools.product(range(-2, 13), repeat=len(params)):
        point = dict(zip(params, values))
        hits = [poly for guard, poly in pp.pieces if evaluate_qf(guard, point)]
        assert len(hits) == evaluate_qf(domain, point), (f, point)
        if hits:
            assert hits[0].evaluate(point) == len(enumerate_fiber(cells, point)), (f, point)


def _brute_force_count(f, lams, point):
    # random_finite_family bounds each lambda variable below by -3 (a
    # constant in [-3, 3], or the previous variable) and above by a parameter
    # plus at most 4, a constant at most 11, or the previous variable plus at
    # most 4, so the whole fiber lies in [-3, max(point, 7) + 4 * len(lams)]
    top = max([7, *point.values()]) + 4 * len(lams)
    box = itertools.product(range(-3, top + 1), repeat=len(lams))
    return sum(evaluate_qf(f, {**point, **dict(zip(lams, values))}) for values in box)


@pytest.mark.parametrize("index", range(len(SLOW_FAMILIES)))
def test_count_matches_brute_force_on_two_congruence_families(index):
    # counts the formula itself, sharing no triangulation with the engine
    f, lams, params, domain = SLOW_FAMILIES[index]
    pp = count_parametric(to_cells(f, lams, params), domain, params)
    for values in itertools.product(range(0, 13 if len(params) == 1 else 9), repeat=len(params)):
        point = dict(zip(params, values))
        assert pp.evaluate(point) == _brute_force_count(f, lams, point), (f, point)


def test_triangulate_skips_branches_with_a_false_atom(sat_queries, monkeypatch):
    # family 618 once built 27,712 residue branches and asked one feasibility
    # query for each; branches whose new atom simplifies to FALSE are now
    # never built.  A fresh tower cache makes triangulate do the work here
    f, lams, params, _ = SLOW_FAMILIES[1]
    cells = to_cells(f, lams, params)
    monkeypatch.setattr(semilinear, "_TOWER_CACHE", {})
    before = len(sat_queries["atoms_satisfiable"])
    for cell in cells:
        triangulate(cell)
    assert 0 < len(sat_queries["atoms_satisfiable"]) - before <= 500


def test_count_parametric_asks_only_conjunctive_queries(sat_queries):
    cells = [(to_cells(f, lams, params), domain, params)
             for f, lams, params, domain in COUNT_FAMILIES]
    for args in cells:
        count_parametric(*args)
    assert sat_queries["atoms_satisfiable"] and not sat_queries["is_satisfiable"]
