import hashlib
import itertools
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from padicmeasure import clear_caches, semilinear
from padicmeasure.presburger import (
    TRUE,
    Atom,
    ExpansionBudgetError,
    LinearTerm,
    atoms_satisfiable,
    conj,
    divides,
    evaluate_on_grid,
    evaluate_qf,
    format_formula,
    geq0,
    parse,
)
from padicmeasure.semilinear import (
    GuardedCell,
    InfiniteFiberError,
    InputError,
    Level,
    NotRectilinearizableError,
    OutOfDomainError,
    Tower,
    count_parametric,
    count_tower,
    rectilinearize,
    to_cells,
    triangulate,
)

from generators import grid_fiber_counts, random_atom, random_finite_family


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
            got += evaluate_on_grid(conj(c.constraints + c.param_guard), axes).astype(np.int64)
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
        hits = [g for g, _ in pp.pieces if evaluate_qf(conj(g), {"s": s})]
        assert len(hits) == 1


def test_count_rejects_a_domain_over_other_variables():
    # a domain over a counted variable is no parameter domain: it once
    # guarded the count with a condition on l
    cells = cells_of("l >= 0 /\\ l <= 3", ["l"], [])
    with pytest.raises(InputError, match=r"^the parameter domain names \['l'\], "
                                         r"which are not parameters$"):
        count_parametric(cells, parse("l <= 1"), [])
    cells = cells_of("l >= 0 /\\ l <= s", ["l"], ["s"])
    with pytest.raises(InputError, match=r"^the parameter domain names \['l', 't'\],"):
        count_parametric(cells, parse("s >= 0 /\\ t >= l"), ["s"])


def _refine_queries(monkeypatch):
    """The atoms_satisfiable calls that refine makes itself, counted."""
    asked = Counter()

    def spy(atoms, original=semilinear.atoms_satisfiable):
        asked[sys._getframe(1).f_code.co_name] += 1
        return original(atoms)

    monkeypatch.setattr(semilinear, "atoms_satisfiable", spy)
    return asked


def test_refine_reads_guard_residues_in_normal_form(monkeypatch):
    # 5 | s + 4 is the guard's residue written another way and is queried;
    # 5 | s - 2 contradicts it and is kept whole unasked, as a query would
    # keep it; 10 | s - 2 contradicts it too, under another modulus, and
    # is asked
    asked = _refine_queries(monkeypatch)
    s = LinearTerm.variable("s")
    regions = [([divides(5, s + 4)], "a"), ([divides(5, s - 2)], "b"),
               ([divides(10, s - 2)], "c"), ([geq0(s)], "d")]
    out = semilinear.refine(regions, [divides(5, s - 1)], lambda value: value + "!")
    assert [value for _, value in out] == ["a!", "b", "c", "d!", "d", "d", "d", "d"]
    assert out[1][0] == [divides(5, s - 2)]
    assert asked["refine"] == 3


# sha256 of the count's printed pieces, `count[ guard ; poly ]` lines as the
# CLI prints them, as the parent of the residue test printed them
ALIGNED_101_PIECES_SHA256 = (
    "4f0b3b7e373089a0231304c5230d5c6a0acb0f5ca445b498c37092a317073d11")


def test_refine_asks_only_the_region_of_the_guard_residue(monkeypatch):
    # the guard of each of the 101 towers holds 101 | s - rho for its own
    # rho; once refined, each region fixes one residue of s, so refine asks
    # about the one region whose residue is the guard's, where it once asked
    # about every region (13,826 queries)
    asked = _refine_queries(monkeypatch)
    f = parse("l1 >= 0 /\\ l1 <= s /\\ 101 | l1 + s")
    counts = count_parametric(to_cells(f, ["l1"], ["s"]), parse("s >= 0"))
    assert asked["refine"] == 101
    text = "".join(f"count[ {format_formula(conj(guard))} ; {poly} ]\n"
                   for guard, poly in counts.pieces)
    assert hashlib.sha256(text.encode()).hexdigest() == ALIGNED_101_PIECES_SHA256
    for s in range(0, 300, 7):
        assert counts.evaluate({"s": s}) == sum(1 for l in range(s + 1) if (l + s) % 101 == 0)


def _subtract_querying_every_piece(disjunct, earlier):
    out, prefix = [], []
    for atom in earlier:
        for comp in semilinear._complement_pieces(atom):
            if atoms_satisfiable(disjunct + prefix + comp):
                out.append(disjunct + prefix + comp)
        prefix.append(atom)
    return out


def test_subtract_drops_pieces_a_held_residue_rules_out(monkeypatch):
    # 5 | s + 4 holds the residue of 5 | s - 1, so that atom adds no piece;
    # of the pieces of 5 | s - 2, only 5 | s - 1 (its r = 4) can meet the
    # disjunct and is asked; 10 | s - 2 has another key and is asked in full
    asked = _refine_queries(monkeypatch)
    s = LinearTerm.variable("s")
    disjunct = [divides(5, s + 4), geq0(s)]
    earlier = [divides(5, s - 1), divides(5, s - 2), divides(10, s - 2), geq0(s - 3)]
    out = semilinear.subtract(disjunct, earlier)
    monkeypatch.undo()
    assert out == _subtract_querying_every_piece(disjunct, earlier)
    assert asked["subtract"] == 1 + 9 + 1
    # random disjuncts and atoms over one and two variables, moduli sharing
    # factors, coefficients sharing factors with them
    rng = random.Random(4242)
    for _ in range(400):
        atoms = [random_atom(rng, ["s", "t"]) for _ in range(6)]
        atoms += [divides(rng.choice((2, 3, 4, 6)), LinearTerm.make(
            {"s": rng.choice((1, 2, 3)), "t": rng.choice((0, 1, 2))}, rng.randint(-6, 6)))
            for _ in range(4)]
        atoms = [a for a in atoms if isinstance(a, Atom)]
        rng.shuffle(atoms)
        cut = rng.randint(0, len(atoms))
        disjunct, earlier = atoms[:cut], atoms[cut:]
        assert semilinear.subtract(disjunct, earlier) == \
            _subtract_querying_every_piece(disjunct, earlier)


# sha256 of the count pieces of the aligned family at M = 400, as the
# CLI prints them; the parent of the subtract residue rule printed them
ALIGNED_400_PIECES_SHA256 = (
    "97428b9d1e7836b22df2eafb33cc8fba5098b97095fec4d4f3233ae116622bb9")


def test_subtract_asks_no_piece_of_a_residue_the_region_fixes(monkeypatch):
    # each region refine hands to subtract fixes one residue of s modulo
    # 400 that a guard divisibility repeats, so none of that atom's 399
    # complement pieces is asked (159,999 subtract queries once)
    asked = _refine_queries(monkeypatch)
    f = parse("l1 >= 0 /\\ l1 <= s /\\ 400 | l1 + s")
    counts = count_parametric(to_cells(f, ["l1"], ["s"]), parse("s >= 0"))
    assert asked["refine"] == 400
    assert asked["subtract"] == 798
    text = "".join(f"count[ {format_formula(conj(guard))} ; {poly} ]\n"
                   for guard, poly in counts.pieces)
    assert hashlib.sha256(text.encode()).hexdigest() == ALIGNED_400_PIECES_SHA256
    for s in range(0, 1300, 37):
        assert counts.evaluate({"s": s}) == sum(1 for l in range(s + 1) if (l + s) % 400 == 0)


def test_rectilinearize_examples():
    make = LinearTerm.make
    assert rectilinearize(cells_of("l >= 3", ["l"], [])) == [{"l": make({"@m0": 1}, 3)}]
    assert rectilinearize(cells_of("l >= 0 /\\ 2 | l", ["l"], [])) == [{"l": make({"@m0": 2})}]
    assert rectilinearize(cells_of("0 <= l1 /\\ l1 <= l2", ["l1", "l2"], [])) == [
        {"l1": make({"@m0": 1}), "l2": make({"@m0": 1, "@m1": 1})}
    ]
    # a constant width is expanded into points; the rays below stay
    cells = cells_of("0 <= l1 /\\ l1 <= 1 /\\ l2 >= 2*l1 - 3", ["l1", "l2"], [])
    assert rectilinearize(cells) == [
        {"l1": make({}, 0), "l2": make({"@m0": 1}, -3)},
        {"l1": make({}, 1), "l2": make({"@m0": 1}, -1)},
    ]


def _coordinates(forms):
    return sorted({name for form in forms.values() for name in form.variables()})


def _image_counts(pieces, variables, lo, hi, mu_box):
    """How often the forms, over mu in [0, mu_box)^m, hit each point of [lo, hi]^n."""
    counts = np.zeros((hi - lo + 1,) * len(variables), dtype=np.int64)
    for forms in pieces:
        coords = _coordinates(forms)
        mu = dict(zip(coords, np.meshgrid(*[np.arange(mu_box)] * len(coords), indexing="ij")))
        shape = (mu_box,) * len(coords)
        images = []
        for v in variables:
            form = forms[v]
            assert all(type(c) is int for _, c in form.coeffs) and type(form.const) is int
            images.append(np.full(shape, form.const, dtype=np.int64)
                          + sum(c * mu[name] for name, c in form.coeffs))
        points = np.stack(images, axis=-1).reshape(-1, len(variables))
        inside = ((points >= lo) & (points <= hi)).all(axis=1)
        np.add.at(counts, tuple((points[inside] - lo).T), 1)
    return counts


def test_rectilinearize_membership_randomized():
    # random_finite_family formulas on their domain, every variable a lambda
    # variable, so that parameters turn into rays; the images of a mu-box
    # hit each formula point of the grid exactly once and no other grid point
    # (a box too small to reach some grid point fails, it cannot pass)
    rng = random.Random(77)
    lo, hi = -4, 9
    checked = 0
    for _ in range(40):
        f, lams, params, domain = random_finite_family(rng)
        variables = lams + params
        if len(variables) > 3:
            continue
        try:
            pieces = rectilinearize(to_cells(conj([f, domain]), variables, []))
        except NotRectilinearizableError:
            continue  # parametric widths are out of scope for pieces
        axes = {v: np.arange(lo, hi + 1) for v in variables}
        want = evaluate_on_grid(conj([f, domain]), axes).astype(np.int64)
        got = _image_counts(pieces, variables, lo, hi, 24)
        assert (got == want).all(), f
        checked += 1
    assert checked >= 30


def test_rectilinear_injectivity_random_pairs():
    rng = random.Random(9)
    pieces = rectilinearize(
        cells_of("0 <= l1 /\\ l1 <= l2 /\\ 3 | l2 - l1", ["l1", "l2"], [])
    )
    assert len(pieces) == 3
    for forms in pieces:
        coords = _coordinates(forms)
        assert len(coords) == 2

        def image(mu):
            env = dict(zip(coords, mu))
            return tuple(forms[v].evaluate(env) for v in ("l1", "l2"))

        for _ in range(1000):
            mu1 = tuple(rng.randint(0, 30) for _ in coords)
            mu2 = tuple(rng.randint(0, 30) for _ in coords)
            if mu1 == mu2:
                continue
            assert image(mu1) != image(mu2)


def test_parametric_width_not_piece_expressible():
    # the cone l1 <= l2 <= 2*l1: each variable order leaves a range whose
    # width grows with the other variable
    with pytest.raises(NotRectilinearizableError):
        rectilinearize(cells_of("0 <= l1 /\\ l1 <= l2 /\\ l2 <= 2*l1", ["l1", "l2"], []))


def test_rectilinearize_searches_variable_orders_in_one_function(monkeypatch):
    # in the given order (l1, l2), l2 is resolved first and its range has
    # the parametric width l1 + 1; the swapped order leaves two rays.  The
    # search reads variable_orders, as normalize_to_basic's does
    cells = cells_of("0 <= l2 /\\ l2 <= l1", ["l1", "l2"], [])
    make = LinearTerm.make
    assert rectilinearize(cells) == [
        {"l1": make({"@m0": 1, "@m1": 1}), "l2": make({"@m0": 1})}
    ]
    monkeypatch.setattr(semilinear, "variable_orders", lambda names: [tuple(names)])
    with pytest.raises(NotRectilinearizableError, match="^parametric range width along l2$"):
        rectilinearize(cells)


def test_variable_orders_are_the_given_order_then_the_sorted_permutations():
    for k in range(5):
        for given in itertools.permutations([f"v{i}" for i in range(k)]):
            listed = [given] + [p for p in sorted(itertools.permutations(given)) if p != given]
            assert list(semilinear.variable_orders(given)) == listed


def test_variable_orders_are_built_as_they_are_tried():
    # ten variables have 10! orders; the search takes the third, so it must
    # not build, let alone sort, the others first
    names = tuple(f"l{i}" for i in range(10))
    tried = []

    def attempt(cell):
        tried.append(cell.variables)
        if len(tried) < 3:
            raise NotRectilinearizableError("blocked")
        return cell.variables

    start = time.process_time()
    assert semilinear.in_first_order(GuardedCell(names, (), ()), attempt) == tried[-1]
    assert time.process_time() - start < 0.5
    assert tried == [names, names[:8] + ("l9", "l8"), names[:7] + ("l8", "l7", "l9")]


def test_rectilinearize_rejects_parameters():
    # the forms would keep no guard: l = s holds only for 0 <= s <= 3
    with pytest.raises(ValueError, match=r"\['s'\]"):
        rectilinearize(cells_of("l = s /\\ 0 <= l /\\ l <= 3", ["l"], ["s"]))
    with pytest.raises(ValueError, match=r"\['s'\]"):
        rectilinearize(cells_of("0 <= l /\\ l < s", ["l"], ["s"]))


def test_counting_matches_enumeration_randomized():
    rng = random.Random(4321)
    for _ in range(12):
        f, lams, params, domain = random_finite_family(rng)
        cells = to_cells(f, lams, params)
        pp = count_parametric(cells, domain, params)
        high = 20 if len(params) == 1 else 8
        want = grid_fiber_counts(f, lams, params, high)
        for values in itertools.product(range(high + 1), repeat=len(params)):
            point = dict(zip(params, values))
            assert pp.evaluate(point) == want[values], (f, point)


def _tower_points(tower, s):
    # the tower at s, its levels' forms expanded into points; none when the
    # guard fails at s
    if not all(a.evaluate({"s": s}) for a in tower.guard):
        return []
    at_s = LinearTerm.constant(s)
    levels = tuple(
        Level(level.var, level.kind, level.start.substitute("s", at_s), level.step,
              level.count.substitute("s", at_s) if level.count is not None else None)
        for level in tower.levels
    )
    pieces = semilinear._pieces_from_tower(Tower(tower.variables, levels, ()), tower.variables)
    return [tuple(forms[v].evaluate({}) for v in tower.variables) for forms in pieces]


def test_towers_partition_the_cell():
    # the towers of the symbolic cell, taken at s, list their points with
    # duplicates kept; the fiber lies inside the box, so equality with the
    # brute-force list means every cell point is in exactly one tower and no
    # tower holds anything else
    cells = cells_of("0 <= l1 /\\ l1 <= l2 /\\ l2 < s /\\ 2 | l2", ["l1", "l2"], ["s"])
    (cell,) = cells
    towers = triangulate(cell)
    assert towers and all(t.variables == ("l1", "l2") for t in towers)
    for s in (0, 1, 4, 7):
        box = [
            (l1, l2)
            for l1 in range(-3, 10)
            for l2 in range(-3, 10)
            if evaluate_qf(conj(cell.constraints + cell.param_guard),
                           {"l1": l1, "l2": l2, "s": s})
        ]
        points = [pt for tower in towers for pt in _tower_points(tower, s)]
        assert Counter(points) == Counter(box)


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
    want = grid_fiber_counts(f, lams, params, 12)
    for values in itertools.product(range(-2, 13), repeat=len(params)):
        point = dict(zip(params, values))
        hits = [poly for guard, poly in pp.pieces
                if evaluate_qf(conj(guard), point)]
        assert len(hits) == evaluate_qf(domain, point), (f, point)
        if hits:
            assert hits[0].evaluate(point) == want[values], (f, point)


def test_triangulate_skips_branches_with_a_false_atom(sat_queries):
    # family 618 once built 27,712 residue branches and asked one feasibility
    # query for each; branches whose new atom simplifies to FALSE are now
    # never built
    f, lams, params, _ = SLOW_FAMILIES[1]
    cells = to_cells(f, lams, params)
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
    assert not sat_queries["qe"]


# ---------------------------------------------------------------------------
# closed-form sums over towers

# roles of the levels l1, l2, ... (outermost first; sum_over_tower sums the
# innermost first): "geometric" is a range whose exponent increment is
# nonzero, "flat" a range whose increment is 0, which hands the sum to the
# power-sum tables before, between or after the geometric levels
TOWER_ROLES = {
    "geometric": ("geometric", "point", "geometric", "geometric"),
    "flat innermost": ("geometric", "point", "geometric", "flat"),
    "flat between": ("geometric", "flat", "point", "geometric"),
    "flat outermost": ("flat", "geometric", "point", "geometric"),
}


def _role_tower(rng, roles):
    """A finite tower over l1, l2, ... and the parameter s, with a weight
    that gives each level its role.  Starts read earlier variables and s,
    counts read s only, so every term of the sum meets the same increment
    at a level."""
    names = [f"l{i + 1}" for i in range(len(roles))]
    levels = []
    for i, role in enumerate(roles):
        start = LinearTerm.make({n: rng.randint(-1, 1) for n in names[:i] + ["s"]},
                                rng.randint(-2, 2))
        if role == "point":
            levels.append(Level(names[i], "point", start))
        else:
            count = LinearTerm.make({"s": rng.randint(0, 1)}, rng.randint(1, 3))
            levels.append(Level(names[i], "range", start, rng.randint(1, 3), count))
    # the exponent coefficient of each variable when its level is summed:
    # its weight coefficient plus what the starts of the inner levels add
    added = dict.fromkeys(names, 0)
    coeffs = {}
    for level, role in reversed(list(zip(levels, roles))):
        if role == "flat":
            want = 0
        elif role == "point":
            want = rng.randint(-2, 2)
        else:
            want = rng.choice((-2, -1, 1, 2))
        coeffs[level.var] = want - added[level.var]
        for n, c in level.start.coeffs:
            if n in added:
                added[n] += want * c
    weight = LinearTerm.make({**coeffs, "s": rng.randint(-1, 1)}, rng.randint(-2, 2))
    return Tower(tuple(names), tuple(levels), ()), weight


def _enumerated_sum(tower, weight, p, s):
    """sum of p^weight (1 when p is None) over the tower's points at s"""
    total = Fraction(0)

    def walk(depth, env):
        nonlocal total
        if depth == len(tower.levels):
            total += 1 if p is None else Fraction(p) ** weight.evaluate(env)
            return
        level = tower.levels[depth]
        start = level.start.evaluate(env)
        steps = [0] if level.kind == "point" else range(level.count.evaluate(env))
        for k in steps:
            walk(depth + 1, {**env, level.var: start + level.step * k})

    walk(0, {"s": s})
    return total


def _closed_value(terms, p, s):
    total = Fraction(0)
    for t in terms:
        power = Fraction(p) ** t.exponent.evaluate({"s": s})
        total += t.poly.evaluate({"s": s}) * power
    return total


@pytest.mark.parametrize("placement", list(TOWER_ROLES))
def test_tower_sums_match_enumeration(placement, monkeypatch):
    # levels from the first flat one outwards go to _sum_level; the others
    # are summed on scalars.  A point count takes none of them there
    rng = random.Random(f"tower sums {placement}")
    roles = TOWER_ROLES[placement]
    handed = []
    sum_level = semilinear._sum_level

    def spy(term, level, p):
        handed.append(level.var)
        return sum_level(term, level, p)

    monkeypatch.setattr(semilinear, "_sum_level", spy)
    first_flat = roles.index("flat") if "flat" in roles else -1
    for _ in range(12):
        tower, weight = _role_tower(rng, roles)
        for p in (2, 3):
            del handed[:]
            terms = semilinear.sum_over_tower(tower, weight, p)
            assert set(handed) == set(tower.variables[:first_flat + 1])
            for s in range(4):
                assert _closed_value(terms, p, s) == _enumerated_sum(tower, weight, p, s), (
                    tower, weight, p, s)
        del handed[:]
        count = count_tower(tower)
        assert handed == []
        for s in range(4):
            assert count.evaluate({"s": s}) == _enumerated_sum(tower, weight, None, s), (tower, s)


def _count_tower(rng):
    """A finite tower of one to five levels over l1, l2, ... and s: points,
    and ranges of step 1 to 3 whose starts and counts may have fractional
    coefficients, so that they are integers at some s only.  A count may
    add the index of the outer range's point, which keeps it at least 0."""
    names = [f"l{i + 1}" for i in range(rng.randint(1, 5))]
    levels = []
    for i, name in enumerate(names):
        d = rng.choice((1, 1, 3))
        start = LinearTerm.make(
            {**{n: rng.randint(-1, 1) for n in names[:i]}, "s": Fraction(rng.randint(-1, 1), d)},
            Fraction(rng.randint(-2, 2), d))
        if rng.random() < 0.2:
            levels.append(Level(name, "point", start))
            continue
        d = rng.choice((1, 1, 3))
        count = LinearTerm.make({"s": Fraction(rng.randint(0, 1), d)},
                                Fraction(rng.randint(0, 2), d) + rng.randint(0, 1))
        outer = levels[-1] if levels else None
        if outer is not None and outer.kind == "range" and rng.random() < 0.75:
            index = (LinearTerm.variable(outer.var) - outer.start).scale(Fraction(1, outer.step))
            count = count + index
        levels.append(Level(name, "range", start, rng.randint(1, 3), count))
    return Tower(tuple(names), tuple(levels), ())


def _point_count(tower, s):
    """The number of the tower's points at s, or None when a start or a
    count met on the way is not an integer there."""
    total = 0

    def walk(depth, env):
        nonlocal total
        if depth == len(tower.levels):
            total += 1
            return True
        level = tower.levels[depth]
        start = Fraction(level.start.evaluate(env))
        count = Fraction(1 if level.kind == "point" else level.count.evaluate(env))
        if start.denominator != 1 or count.denominator != 1:
            return False
        return all(walk(depth + 1, {**env, level.var: start + level.step * k})
                   for k in range(int(count)))

    return total if walk(0, {"s": s}) else None


def test_count_tower_matches_enumeration(monkeypatch):
    # five levels, not three: the power x^j summed at a level has j at most
    # the number of ranges inside it, and j = 0 to 4 should all be checked
    degrees = []

    def spy(level, degree, original=semilinear._progression_sums):
        degrees.append(degree)
        return original(level, degree)

    monkeypatch.setattr(semilinear, "_progression_sums", spy)
    rng = random.Random("count towers")
    checked_degrees, compared, fractional = set(), 0, 0
    for _ in range(200):
        tower = _count_tower(rng)
        del degrees[:]
        count = count_tower(tower)
        points = [(s, _point_count(tower, s)) for s in range(9)]
        points = [(s, n) for s, n in points if n is not None]
        for s, n in points:
            assert count.evaluate({"s": s}) == n, (tower, s)
        if points:
            compared += len(points)
            checked_degrees.update(degrees)
            ranges = [level for level in tower.levels if level.kind == "range"]
            fractional += (any(level.start.denominator_lcm() > 1 for level in tower.levels)
                           and any(level.count.denominator_lcm() > 1 for level in ranges))
    assert checked_degrees == {0, 1, 2, 3, 4}
    assert compared >= 500 and fractional >= 10, (compared, fractional)


def test_geometric_towers_use_no_power_sum_table(monkeypatch):
    # points, rays and ranges whose exponent increments are nonzero are
    # summed on scalars; a flat range is what needs the power sums
    calls = []

    def spy(name, original):
        def wrapped(*args):
            calls.append(name)
            return original(*args)
        return wrapped

    for name in ("bounded_power_sums", "_progression_sums"):
        monkeypatch.setattr(semilinear, name, spy(name, getattr(semilinear, name)))
    ray = Level("l0", "ray", LinearTerm.variable("s"), -2)
    rng = random.Random(5)
    for _ in range(10):
        tower, weight = _role_tower(rng, TOWER_ROLES["geometric"])
        with_ray = Tower(("l0",) + tower.variables, (ray,) + tower.levels, ())
        semilinear.sum_over_tower(with_ray, weight + LinearTerm.make({"l0": 1}), 2)
    assert calls == []
    tower, weight = _role_tower(rng, TOWER_ROLES["flat between"])
    semilinear.sum_over_tower(tower, weight, 2)
    assert "bounded_power_sums" in calls and "_progression_sums" in calls


def _error_tower(inner):
    """A ray along l1 over a geometric range along l2 of count l1/2 + 3, over
    the levels inner; the range's tail adds half its increment to l1's."""
    names = ("l1", "l2") + tuple(level.var for level in inner)
    levels = (Level("l1", "ray", LinearTerm.constant(0), 1),
              Level("l2", "range", LinearTerm.constant(0), 1,
                    LinearTerm.make({"l1": Fraction(1, 2)}, 3))) + inner
    return Tower(names, levels, ())


# innermost levels summed on scalars, or handed straight to the tables
ERROR_INNER = {
    "scalar": (Level("l3", "point", LinearTerm.variable("l2")),),
    "tables": (Level("l3", "range", LinearTerm.constant(0), 1, LinearTerm.constant(2)),),
}


@pytest.mark.parametrize("inner", list(ERROR_INNER))
def test_tower_sum_errors_come_term_by_term(inner):
    tower = _error_tower(ERROR_INNER[inner])
    l1, l2 = LinearTerm.variable("l1"), LinearTerm.variable("l2")
    # the head's increment along the ray is -1, the tail's -1 + 1/2
    with pytest.raises(ValueError, match=r"^exponent increment -1/2 along l1 is not an integer$"):
        semilinear.sum_over_tower(tower, l2 - l1, 2)
    # the head diverges before the tail's increment 1/2 is read
    with pytest.raises(semilinear.DivergesError, match=r"^measure diverges along l1 towards \+inf$"):
        semilinear.sum_over_tower(tower, l2, 2)
    # a non-integral increment is an error before a divergent ray
    with pytest.raises(ValueError, match=r"^exponent increment 1/2 along l1 is not an integer$"):
        semilinear.sum_over_tower(tower, l2 + l1.scale(Fraction(1, 2)), 2)


@pytest.mark.parametrize("inner", list(ERROR_INNER))
def test_a_ray_over_a_zero_summand_does_not_diverge(inner):
    # at l1 = -1 the range along l2 is empty: its head and tail cancel, and
    # the ray along l0 sums nothing, whatever its increment
    point = Level("l1", "point", LinearTerm.constant(-1))
    span = Level("l2", "range", LinearTerm.constant(0), 1, LinearTerm.make({"l1": 1}, 1))
    for increment in (0, 1):
        ray = Level("l0", "ray", LinearTerm.constant(0), 1)
        tower = Tower(("l0", "l1", "l2", "l3"), (ray, point, span) + ERROR_INNER[inner], ())
        weight = LinearTerm.make({"l0": increment, "l2": 1})
        assert semilinear.sum_over_tower(tower, weight, 2) == []
        live = Tower(tower.variables, (ray, Level("l1", "point", LinearTerm.constant(0)),
                                       span) + ERROR_INNER[inner], ())
        with pytest.raises(semilinear.DivergesError):
            semilinear.sum_over_tower(live, weight, 2)


@pytest.mark.parametrize("p", [2, None])
def test_a_range_without_a_count_is_rejected(p):
    # where the level is built, so neither sum_over_tower (p = 2) nor
    # count_tower (p None) ever meets one
    with pytest.raises(ValueError, match=r"^range level along l1 has no count$"):
        Level("l1", "range", LinearTerm.constant(0), 1)
    # the same level with its count sums as enumeration does
    span = Level("l1", "range", LinearTerm.constant(0), 1, LinearTerm.constant(3))
    tower = Tower(("l1",), (span,), ())
    weight = LinearTerm.make({"l1": -1}) if p else LinearTerm.constant(0)
    value = (_closed_value(semilinear.sum_over_tower(tower, weight, p), p, 0) if p
             else count_tower(tower).evaluate({}))
    assert value == _enumerated_sum(tower, weight, p, 0) == (Fraction(7, 4) if p else 3)


def test_a_repeated_equality_gives_the_same_towers():
    # the split drops the equality it pins the variable with by position, so
    # a second copy of it, the same object, is substituted like any other atom
    base = to_cells(parse("l2 = l1 + 2*s /\\ l1 >= 0 /\\ 2*l1 <= s /\\ 3 | l2"),
                    ["l1", "l2"], ["s"])
    assert len(base) == 1
    cell = base[0]
    equality = next(a for a in cell.constraints if a.kind == "eq0")
    repeated = GuardedCell(cell.variables, cell.constraints + (equality,), cell.param_guard)
    towers = triangulate(cell)
    assert towers
    assert triangulate(repeated) == towers
    clear_caches()
    assert triangulate(repeated) == towers
    assert triangulate(cell) == towers


def test_a_huge_modulus_stops_at_the_split_budget():
    # every residue class of a congruence or alignment split is a branch, so
    # the split checks its budget before it builds them
    f = parse("l1 >= 0 /\\ l1 <= s /\\ 99991 | l1 + s")
    started = time.process_time()
    with pytest.raises(ExpansionBudgetError, match="budget"):
        count_parametric(to_cells(f, ["l1"], ["s"]), parse("s >= 0"))
    assert time.process_time() - started < 1.0
    # a modulus the budget admits is counted exactly
    small = count_parametric(to_cells(parse("l1 >= 0 /\\ l1 <= s /\\ 7 | l1 + s"), ["l1"], ["s"]),
                             parse("s >= 0"))
    for s in range(30):
        assert small.evaluate({"s": s}) == sum(1 for l in range(s + 1) if (l + s) % 7 == 0)


def _aligned_modulus_cell(m):
    (cell,) = cells_of(f"l1 >= 0 /\\ l1 <= s /\\ {m} | l1 + s", ["l1"], ["s"])
    return cell


def test_alignment_reads_the_residue_off_the_branch_congruence(monkeypatch):
    # each branch of the congruence split holds m | s - rho, which fixes the
    # residue of the upper bound s, so the alignment split builds one range
    # per branch where it once built one per residue pair, m * m in all
    ranges = []

    def spy(*args, original=semilinear._aligned_levels):
        out = original(*args)
        ranges.extend(level for _, level in out if level.kind == "range")
        return out

    monkeypatch.setattr(semilinear, "_aligned_levels", spy)
    for m in (7, 101):
        ranges.clear()
        towers = triangulate(_aligned_modulus_cell(m))
        assert len(ranges) == m and len(towers) == m
    # m = 181 once stopped at the split budget
    counts = count_parametric(to_cells(parse("l1 >= 0 /\\ l1 <= s /\\ 181 | l1 + s"),
                                       ["l1"], ["s"]), parse("s >= 0"))
    for s in range(200):
        assert counts.evaluate({"s": s}) == sum(1 for l in range(s + 1) if (l + s) % 181 == 0)


def test_alignment_of_a_large_modulus_matches_enumeration():
    # at m = 1009 the split builds 1009 towers well inside the budget; their
    # points at each s are the fiber, each once
    towers = triangulate(_aligned_modulus_cell(1009))
    assert len(towers) == 1009
    for s in range(31):
        points = [pt for tower in towers for pt in _tower_points(tower, s)]
        assert sorted(points) == [(l,) for l in range(s + 1) if (l + s) % 1009 == 0]


def test_alignment_split_keeps_the_residues_the_branch_leaves_open():
    # a held congruence modulo a multiple of the alignment modulus fixes the
    # residue; one modulo a number the modulus does not divide, or on a form
    # it does not determine, leaves every residue to the split
    s = LinearTerm.variable("s")
    t = LinearTerm.variable("t")
    residues = semilinear._held_residue
    assert residues(s, 5, [parse("10 | s - 7")]) == 2
    assert residues(s.scale(3) + 1, 5, [parse("5 | 2*s - 1")]) == 0  # s = 3, 3*s + 1 = 10
    assert residues(s + t, 5, [parse("5 | s - 1"), parse("5 | s + t - 4")]) == 4
    assert residues(LinearTerm.constant(-3), 5, []) == 2
    assert residues(s, 5, [parse("7 | s - 1")]) is None
    assert residues(s + t, 5, [parse("5 | s - 1")]) is None
    assert residues(s, 5, [parse("s - 1 >= 0")]) is None
