import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from padicmeasure import measure
from padicmeasure.algebra import Polynomial, bounded_power_sums, faulhaber
from padicmeasure.measure import (
    BoxCell,
    Coordinate,
    DegenerateCoordinate,
    DivergesError,
    ExpPolynomial,
    ExpTerm,
    InputError,
    INFINITY,
    MEASURE_ZERO,
    PAdicContext,
    Weight,
    ZeroInputError,
    ac_level,
    cell_to_weighted_sum,
    exp_poly_eval,
    exp_poly_is_zero,
    make_exp_polynomial,
    sum_closed_form,
    valuation,
)
from padicmeasure.oracle import WindowTooSmallError, truncated_measure
from padicmeasure.presburger import (
    TRUE,
    Atom,
    Formula,
    LinearTerm,
    atoms_satisfiable,
    conj,
    disj,
    divides,
    eq0,
    evaluate_qf,
    format_formula,
    free_variables,
    geq0,
    neg,
    parse,
    simplify_conjunction,
)
from padicmeasure.ring import (
    Certificate,
    CertificateStep,
    find_invalid_step,
    measure_function,
    multiply,
    normalize_to_basic,
    presentation,
)
from padicmeasure.semilinear import (
    OutOfDomainError,
    count_parametric,
    disjoint_conjunctions,
    refine,
    to_cells,
)

from generators import random_atom, random_finite_family, random_formula, random_term

CTX2 = PAdicContext(2)
CTX3 = PAdicContext(3)


def test_prime_validation():
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    for n in (0, 1, -3, 4, 561, 3215031751):
        with pytest.raises(ValueError, match="must be prime"):
            PAdicContext(n)
    PAdicContext(97)
    # trial division up to sqrt(p) would take about a minute on these
    start = time.perf_counter()
    for p in (10**18 + 3, 10**18 + 9):
        assert PAdicContext(p).p == p
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=r"below 2\^64"):
        PAdicContext(2**64 + 13)


@pytest.mark.parametrize(
    "q,p,expected",
    [(12, 2, 2), (Fraction(1, 6), 3, -1), (0, 2, INFINITY), (Fraction(9, 4), 3, 2), (-8, 2, 3)],
)
def test_valuation(q, p, expected):
    assert valuation(q, PAdicContext(p)) == expected


def test_ac_level_examples():
    assert ac_level(12, 2, CTX2) == 3
    assert ac_level(1, 5, CTX3) == 1
    assert ac_level(Fraction(1, 3), 2, CTX2) == 3  # 3*3 = 9 = 1 mod 4
    assert (ac_level(Fraction(1, 3), 2, CTX2) * 3) % 4 == 1
    with pytest.raises(ZeroInputError):
        ac_level(0, 1, CTX2)


def unit_coord():
    return Coordinate(Fraction(0), 1, 1)


def test_cell_to_weighted_sum_natural_volume():
    cell = BoxCell((unit_coord(),), ("l1",), parse("l1 >= 0"))
    lam, w = cell_to_weighted_sum(cell, CTX2)
    assert w.affine() == LinearTerm.make({"l1": -1}, -1)
    e = sum_closed_form(lam, w, TRUE, CTX2, [])
    assert exp_poly_eval(e, {}) == Fraction(1, 2 - 1)
    assert exp_poly_eval(sum_closed_form(lam, w, TRUE, CTX3, []), {}) == Fraction(1, 3 - 1)


def test_cell_to_weighted_sum_lists_every_lambda_variable():
    # the volume cancels l1's weight; l1 is still summed, over all integers
    cell = BoxCell((unit_coord(),), ("l1",), TRUE,
                   Weight.make(1, LinearTerm.constant(0), {"l1": 1}))
    lam, w = cell_to_weighted_sum(cell, CTX2)
    assert w.b == (("l1", 0),)
    with pytest.raises(DivergesError):
        sum_closed_form(lam, w, TRUE, CTX2, [])


def test_degenerate_coordinate_is_measure_zero():
    cell = BoxCell((DegenerateCoordinate(Fraction(1, 2)), unit_coord()), ("l1",),
                   parse("l1 >= 0"))
    assert cell_to_weighted_sum(cell, CTX2) is MEASURE_ZERO


def test_level_two_point_cell():
    cell = BoxCell((Coordinate(Fraction(0), 2, 3),), ("l1",), parse("l1 = 0"))
    lam, w = cell_to_weighted_sum(cell, CTX2)
    e = sum_closed_form(lam, w, TRUE, CTX2, [])
    assert exp_poly_eval(e, {}) == Fraction(1, 4)
    # cross-check with the depth-4 residue bracket
    bracket = truncated_measure(presentation(CTX2, [(1, cell)]), {}, depth=4)
    assert Fraction(1, 4) in bracket


def test_sum_geometric_tail():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    e = sum_closed_form(parse("l >= 0"), w, TRUE, CTX3, [])
    assert exp_poly_eval(e, {}) == Fraction(1, 2)


def test_bounded_power_sums_match_summation():
    # S_j(K) = sum of i^j q^i over 0 <= i <= K equals A_j + q^(K+1) B_j(K)
    for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3)):
        for j, (head, tail) in enumerate(bounded_power_sums(q, 3)):
            for k in range(9):
                closed = head + q ** (k + 1) * sum(c * k**d for d, c in enumerate(tail))
                assert closed == sum(i**j * q**i for i in range(k + 1)), (q, j, k)


def test_faulhaber_matches_summation():
    # F_j(K) = sum of i^j over 0 <= i <= K, as a coefficient list in K
    sums = faulhaber(6)
    assert len(sums) == 7
    for j, coeffs in enumerate(sums):
        assert len(coeffs) == j + 2
        for k in range(21):
            assert sum(c * k**d for d, c in enumerate(coeffs)) == sum(i**j for i in range(k + 1))


def _random_raw_polynomial(rng, names):
    """{monomial: coefficient} with up to five terms of degree at most three,
    rational coefficients and monomials listed in canonical form."""
    raw = {}
    for _ in range(rng.randint(0, 5)):
        exps = {n: rng.randint(0, 2) for n in names}
        mono = tuple((n, e) for n, e in sorted(exps.items()) if e)
        if sum(e for _, e in mono) <= 3:
            raw[mono] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    return raw


def _value(raw, point):
    """Exact value of a raw {monomial: coefficient} at an integer point."""
    return sum((c * math.prod(Fraction(point[n]) ** e for n, e in m) for m, c in raw.items()),
               Fraction(0))


def _assert_canonical(poly):
    # nonzero coefficients, ints where integral and Fractions in lowest terms
    # otherwise, monomials sorted by degree and then by variables
    assert [m for m, _ in poly.terms] == sorted(
        (m for m, _ in poly.terms), key=lambda m: (sum(e for _, e in m), m))
    for mono, c in poly.terms:
        assert list(mono) == sorted(dict(mono).items()) and all(e >= 1 for _, e in mono)
        assert c != 0
        if type(c) is not int:
            assert type(c) is Fraction and c.denominator > 1
            assert math.gcd(c.numerator, c.denominator) == 1


@pytest.mark.parametrize("seed", range(12))
def test_polynomial_arithmetic_matches_exact_evaluation(seed):
    rng = random.Random(f"poly:{seed}")
    names = ["x", "y", "z"][:rng.choice((2, 3))]
    raws = [_random_raw_polynomial(rng, names) for _ in range(3)]
    polys = [Polynomial.make(raw) for raw in raws]
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in raws]
    name = rng.choice(names)
    form = LinearTerm.make({n: rng.randint(-2, 2) for n in names},
                           Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    combined = Polynomial.combine(zip(coeffs, polys))
    results = [combined, polys[0] + polys[1], polys[0] - polys[1], polys[0] * polys[1],
               polys[2].substitute_affine(name, form)]
    for poly in polys + results:
        _assert_canonical(poly)
    for _ in range(6):
        point = {n: rng.randint(-4, 4) for n in names}
        a, b, c = (_value(raw, point) for raw in raws)
        moved = {**point, name: form.evaluate(point)}
        want = [sum(k * _value(raw, point) for k, raw in zip(coeffs, raws)),
                a + b, a - b, a * b, _value(raws[2], moved)]
        assert [poly.evaluate(point) for poly in results] == want, point


def test_polynomial_coefficients_are_ints_where_integral():
    half = Polynomial.make({(("x", 1),): Fraction(1, 2), (): Fraction(4, 2)})
    assert half.terms == (((), 2), ((("x", 1),), Fraction(1, 2)))
    assert type(half.terms[0][1]) is int
    doubled = half.scale(2)
    assert doubled.terms == (((), 4), ((("x", 1),), 1))
    assert all(type(c) is int for _, c in doubled.terms)
    assert all(type(c) is int for _, c in (half + half).terms)
    assert (half - half).terms == ()
    assert Polynomial.combine([(Fraction(2, 3), half), (3, Polynomial.variable("x"))]).terms == (
        ((), Fraction(4, 3)), ((("x", 1),), Fraction(10, 3)))
    assert type(Polynomial.constant(Fraction(6, 3)).terms[0][1]) is int
    assert type(LinearTerm.make({"x": 3}, -1).to_polynomial().terms[0][1]) is int
    for _, poly in count_parametric(to_cells(parse("0 <= l /\\ 2*l <= s"), ["l"], ["s"]),
                                    parse("s >= 0"), ["s"]).pieces:
        _assert_canonical(poly)


def test_polynomial_make_merges_repeated_monomials():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    # x*y listed in both orders: the coefficients add up
    assert Polynomial.make({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): 2}) == (x * y).scale(3)
    # a repeated variable is one power
    square = Polynomial.make({(("x", 1), ("x", 1)): 1})
    assert square == x * x and str(square) == "x^2"


def test_sum_divergence():
    with pytest.raises(DivergesError) as err:
        sum_closed_form(parse("l >= 0"), Weight.constant(0), TRUE, CTX2, [])
    assert err.value.direction == 1


def test_sum_family_against_partial_sums():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    e = sum_closed_form(parse("0 <= l /\\ l < s"), w, parse("s >= 0"), CTX2, ["s"])
    for s in range(0, 31):
        want = sum(Fraction(2) ** (-l - 1) for l in range(s))
        got = exp_poly_eval(e, {"s": s}) if s >= 1 else Fraction(0)
        if s == 0:
            with pytest.raises(OutOfDomainError):
                exp_poly_eval(e, {"s": 0})
        else:
            assert got == want


def test_weight_integrality_validation():
    half = Weight.make(2, LinearTerm.constant(0), {"l": -1})
    with pytest.raises(InputError):
        sum_closed_form(parse("l >= 0"), half, TRUE, CTX3, [])
    # with a parity congruence the same weight is fine
    e = sum_closed_form(parse("l >= 0 /\\ 2 | l"), half, TRUE, CTX3, [])
    assert exp_poly_eval(e, {}) == Fraction(3, 2)


def test_cell_weight_validation_rejects_on_every_path():
    # the weight folds to the constant -1/2: no path may measure the cell
    bad = Weight.make(2, LinearTerm.constant(1), {"l1": 2})
    cell = BoxCell((unit_coord(),), ("l1",), parse("l1 >= 0"), bad)
    pres = presentation(CTX2, [(1, cell)])
    with pytest.raises(InputError, match=r"^weight value -1/2 is not an integer on its guard$"):
        measure_function(pres)
    with pytest.raises(InputError):
        normalize_to_basic(pres)
    assert find_invalid_step(Certificate((CertificateStep("R1", "", pres, pres),))) == 0
    with pytest.raises(WindowTooSmallError):
        truncated_measure(pres, {})


def test_weight_checks_format_no_text_unless_they_raise(monkeypatch):
    # the integrality checks name the form they reject only when they
    # raise, so a valid cell whose weight has r = 2 formats no exponent
    formatted = []
    original = LinearTerm.__str__
    monkeypatch.setattr(LinearTerm, "__str__", lambda t: formatted.append(t) or original(t))
    half = Weight.make(2, LinearTerm.constant(0), {"l": -1})
    e = sum_closed_form(parse("l >= 0 /\\ 2 | l"), half, TRUE, CTX3, [])
    assert exp_poly_eval(e, {}) == Fraction(3, 2)
    assert formatted == []


def test_coordinate_level_is_bounded_before_any_power_is_built():
    # p^level at level 10^12 would not finish; the bound is read off
    # level * p.bit_length(), so the rejection is immediate
    huge = BoxCell((Coordinate(Fraction(0), 10**12, 1),), ("l1",), parse("l1 >= 0"))
    start = time.process_time()
    with pytest.raises(InputError, match=(
            r"^coordinate level 1000000000000 is above 2048, the bound for p = 2$")):
        measure_function(presentation(CTX2, [(1, huge)]))
    assert time.process_time() - start < 1
    Coordinate(Fraction(0), measure.LEVEL_BITS // 2, 1).validate(CTX2)
    with pytest.raises(InputError, match="above 1365, the bound for p = 5"):
        Coordinate(Fraction(0), measure.LEVEL_BITS // 3 + 1, 1).validate(PAdicContext(5))
    level3 = BoxCell((Coordinate(Fraction(0), 3, 1),), ("l1",), parse("l1 >= 0"))
    assert measure_function(presentation(CTX2, [(1, level3)])).evaluate({}) == Fraction(1, 4)


def test_level_sum_of_a_product_is_bounded():
    # one coordinate at level 1500 is inside the bound for p = 2 (2048);
    # the product cell's two add up to 3000, past it
    cell = BoxCell((Coordinate(Fraction(0), 1500, 1),), ("l1",), parse("l1 >= 0"))
    pres = presentation(CTX2, [(1, cell)])
    assert measure_function(pres).evaluate({}) == Fraction(1, 2**1499)
    with pytest.raises(InputError, match=(
            r"^coordinate levels sum to 3000, above 2048, the bound for p = 2$")):
        measure_function(multiply(pres, pres))


def test_weight_entries_must_be_integers():
    for entry in (Fraction(3, 2), 2.7):
        with pytest.raises(InputError, match=f"^weight entry {entry} for l1 is not an integer$"):
            Weight.make(2, LinearTerm.constant(0), {"l1": entry})
    weight = Weight.make(2, LinearTerm.constant(0), {"l1": Fraction(4, 2), "l2": 0, "l3": -3})
    assert weight.b == (("l1", 2), ("l3", -3))
    assert all(type(v) is int for _, v in weight.b)


def test_exp_poly_eval_constant_and_domain():
    one = make_exp_polynomial(2, (), [(TRUE, Polynomial.constant(1), LinearTerm.constant(0))])
    assert exp_poly_eval(one, {}) == 1
    guarded = make_exp_polynomial(
        2, ("s",), [(parse("s >= 0"), Polynomial.constant(1), LinearTerm.constant(0))]
    )
    with pytest.raises(OutOfDomainError):
        exp_poly_eval(guarded, {"s": -1})


def test_exp_poly_eval_family_value():
    g = parse("s >= 0")
    e = make_exp_polynomial(
        2,
        ("s",),
        [
            (g, Polynomial.constant(1), LinearTerm.constant(0)),
            (g, Polynomial.constant(-1), LinearTerm.make({"s": -1})),
        ],
    )
    assert exp_poly_eval(e, {"s": 2}) == Fraction(3, 4)
    scaled = make_exp_polynomial(
        2, ("s",), [(g, t.poly.scale(Fraction(1, 1)), t.exponent) for t in e.terms]
    )
    assert scaled == e


def test_zero_test_empty_and_cancellation():
    empty = make_exp_polynomial(2, ("s",), [])
    assert exp_poly_is_zero(empty, TRUE) is None
    g = parse("s >= 0")
    s_poly = Polynomial.variable("s")
    cancel = make_exp_polynomial(
        2, ("s",),
        [(g, s_poly, LinearTerm.constant(0)), (g, s_poly.scale(-1), LinearTerm.constant(0))],
    )
    assert cancel.terms == ()
    assert exp_poly_is_zero(cancel, TRUE) is None


def test_zero_test_witness():
    g = parse("s >= 0")
    e = make_exp_polynomial(
        2, ("s",),
        [(g, Polynomial.constant(1), LinearTerm.constant(0)),
         (g, Polynomial.constant(-1), LinearTerm.make({"s": -1}))],
    )
    witness = exp_poly_is_zero(e, parse("s >= 0"))
    assert witness is not None
    point = witness.as_dict()
    assert exp_poly_eval(e, point) == witness.value != 0
    # s(s-1)...(s-5) vanishes on the first six points of its witness box
    falling = Polynomial.constant(1)
    for k in range(6):
        falling = falling * (Polynomial.variable("s") - Polynomial.constant(k))
    e = make_exp_polynomial(2, ("s",), [(g, falling, LinearTerm.constant(0))])
    witness = exp_poly_is_zero(e, parse("s >= 0"))
    assert (witness.as_dict(), witness.value) == ({"s": 6}, 720)
    # a piece with a constant-width range and a ray: s is expanded into
    # s = 0, 1, 2 and t = @m0; s*t*(t-1)*2^-t vanishes on s = 0 and at t = 0, 1
    domain = parse("0 <= s /\\ s <= 2 /\\ t >= 0")
    s_poly, t_poly = Polynomial.variable("s"), Polynomial.variable("t")
    e = make_exp_polynomial(
        2, ("s", "t"),
        [(domain, s_poly * t_poly * (t_poly - Polynomial.constant(1)), LinearTerm.make({"t": -1}))],
    )
    witness = exp_poly_is_zero(e, domain)
    assert (witness.as_dict(), witness.value) == ({"s": 1, "t": 2}, Fraction(1, 2))


def test_zero_test_cross_guard_cancellation():
    # identical values expressed with different exponent bookkeeping
    g = parse("s >= 1")
    e = make_exp_polynomial(
        2, ("s",),
        [(g, Polynomial.constant(2), LinearTerm.make({"s": -1}, -1)),
         (g, Polynomial.constant(-1), LinearTerm.make({"s": -1}))],
    )
    assert exp_poly_is_zero(e, parse("s >= 1")) is None


def test_zero_test_polynomial_group_on_cone():
    # s*p^0 - s*p^0 + (s^2 - s*s) p^{-s} over N
    g = parse("s >= 0")
    s_poly = Polynomial.variable("s")
    e = make_exp_polynomial(
        2, ("s",),
        [(g, s_poly * s_poly, LinearTerm.make({"s": -1})),
         (g, (s_poly * s_poly).scale(-1), LinearTerm.make({"s": -1}, 0))],
    )
    assert exp_poly_is_zero(e, TRUE) is None


def test_canonicalization_idempotent():
    raw = [
        (parse("s >= 0"), Polynomial.constant(1), LinearTerm.make({"s": 1})),
        (parse("s >= 3"), Polynomial.constant(2), LinearTerm.make({"s": 1}, 1)),
        (TRUE, Polynomial.variable("s"), LinearTerm.constant(0)),
    ]
    e = make_exp_polynomial(2, ("s",), raw)
    again = make_exp_polynomial(2, ("s",), [(t.guard, t.poly, t.exponent) for t in e.terms])
    assert e == again


def test_monotonicity_in_weights():
    # coefficientwise-smaller weights give pointwise-smaller sums on
    # nonnegative fibers
    from padicmeasure.presburger import conj, geq0

    rng = random.Random(5)
    for _ in range(15):
        f, lams, params, domain = random_finite_family(rng)
        f = conj([f] + [geq0(LinearTerm.variable(v)) for v in lams])
        b_small = {v: rng.randint(-3, -1) for v in lams}
        b_big = {v: b_small[v] + rng.randint(0, 2) for v in lams}
        c_small = rng.randint(-3, 0)
        c_big = c_small + rng.randint(0, 2)
        w_small = Weight.make(1, LinearTerm.constant(c_small), b_small)
        w_big = Weight.make(1, LinearTerm.constant(c_big), b_big)
        e_small = sum_closed_form(f, w_small, domain, CTX2, params)
        e_big = sum_closed_form(f, w_big, domain, CTX2, params)
        for trial in range(8):
            point = {v: rng.randint(0, 12) for v in params}
            def val(e):
                try:
                    return exp_poly_eval(e, point)
                except OutOfDomainError:
                    return Fraction(0)
            assert val(e_small) <= val(e_big), (f, point)


def test_fractional_exponent_classes_evaluate_exactly():
    w = Weight.make(2, LinearTerm.make({"s": -1}), {"l": -2})
    e = sum_closed_form(parse("l >= 0 /\\ 2 | s"), w, parse("s >= 0"), CTX2, ["s"])
    for s in range(0, 21, 2):
        assert exp_poly_eval(e, {"s": s}) == Fraction(2) ** (-s // 2) * 2


def _random_raw_terms(rng):
    """Two or three raw terms over quantifier-free random guards, which mix
    disjunctions, negations and divisibility atoms."""
    raw = []
    for _ in range(rng.randint(2, 3)):
        guard = random_formula(rng, max_quantifiers=0, max_free=2)
        names = sorted(free_variables(guard))
        poly = Polynomial.constant(rng.randint(-2, 2))
        if rng.random() < 0.3:
            poly = poly * Polynomial.variable(rng.choice(names))
        exponent = LinearTerm.make({rng.choice(names): rng.randint(-1, 1)}, rng.randint(-1, 1))
        raw.append((guard, poly, exponent))
    return raw


RAW_TERM_LISTS = [_random_raw_terms(random.Random(f"raw:{i}")) for i in range(24)]


def _pooled_raw_terms(rng):
    """Six to ten raw terms whose guards come from a pool of three, so guards
    repeat and interleave; the pool is drawn from a disjunction, a negated
    conjunction, a divisibility atom and a random quantifier-free formula."""
    scope = ("a", "b")
    pool = [
        disj([random_atom(rng, scope), random_atom(rng, scope)]),
        neg(conj([random_atom(rng, scope), random_atom(rng, scope)])),
        divides(rng.randint(2, 4), random_term(rng, scope)),
        random_formula(rng, max_quantifiers=0, max_free=2),
    ]
    pool = rng.sample(pool, 3)
    raw = []
    for _ in range(rng.randint(6, 10)):
        poly = Polynomial.constant(rng.randint(-2, 2))
        if rng.random() < 0.3:
            poly = poly * Polynomial.variable(rng.choice(scope))
        exponent = LinearTerm.make({rng.choice(scope): rng.randint(-1, 1)}, rng.randint(-1, 1))
        raw.append((rng.choice(pool), poly, exponent))
    return raw


POOLED_RAW_TERM_LISTS = [_pooled_raw_terms(random.Random(f"pooled:{i}")) for i in range(24)]


def _refined_term_by_term(p, param_vars, raw):
    """make_exp_polynomial's canonical form, refined once per raw term in
    input order: each term is moved to its exponent's representative with
    constant in [0, 1) before the terms of a region are summed."""
    regions = [([], [])]
    for guard, poly, exponent in raw:
        if poly.is_zero():
            continue
        pieces = disjoint_conjunctions(guard) if isinstance(guard, Formula) else [list(guard)]
        for piece in pieces:
            regions = refine(regions, piece, lambda acc: acc + [(poly, exponent)])
    terms = []
    for atoms, acc in regions:
        merged = {}
        for poly, exponent in acc:
            shift = math.floor(exponent.const)
            key = exponent - shift
            merged[key] = merged.get(key, Polynomial.constant(0)) + poly.scale(Fraction(p) ** shift)
        guard = simplify_conjunction(atoms)
        terms.extend(ExpTerm(guard, poly, exponent)
                     for exponent, poly in merged.items() if not poly.is_zero())
    terms.sort(key=lambda t: (str(conj(t.guard)),
                              measure._exponent_key(t.exponent)))
    return ExpPolynomial(p, tuple(param_vars), tuple(terms))


def test_grouped_guards_give_the_term_by_term_canonical_form():
    for raw in POOLED_RAW_TERM_LISTS + RAW_TERM_LISTS:
        assert make_exp_polynomial(2, ("a", "b"), raw) == _refined_term_by_term(2, ("a", "b"), raw)


def _one_guard_raw_terms(rng):
    """Two to four raw terms under one atom tuple over a and b, drawn so
    that some tuples repeat an atom and some have no point."""
    scope = ("a", "b")
    atoms = [a for a in (random_atom(rng, scope) for _ in range(rng.randint(0, 4)))
             if isinstance(a, Atom)]
    if atoms and rng.random() < 0.3:
        atoms.append(rng.choice(atoms))
    if rng.random() < 0.2:
        atoms += [geq0(LinearTerm.make({"a": 1}, -1)), geq0(LinearTerm.make({"a": -1}))]
    guard = tuple(atoms)
    raw = []
    for _ in range(rng.randint(2, 4)):
        poly = Polynomial.constant(rng.randint(-2, 2))
        if rng.random() < 0.3:
            poly = poly * Polynomial.variable(rng.choice(scope))
        exponent = LinearTerm.make({rng.choice(scope): rng.randint(-1, 1)}, rng.randint(-2, 2))
        raw.append((guard, poly, exponent))
    return raw


def test_one_guard_gives_the_region_refinement_gives(monkeypatch):
    # terms under one atom tuple make the one region of that tuple, or none
    # when it has no point, without a refinement; the reference refines from
    # the whole space
    rng = random.Random(3537)
    lists = [_one_guard_raw_terms(rng) for _ in range(300)]
    want = [_refined_term_by_term(2, ("a", "b"), raw) for raw in lists]
    refined = []
    monkeypatch.setattr(measure, "refine", lambda *args: refined.append(args))
    got = [make_exp_polynomial(2, ("a", "b"), raw) for raw in lists]
    assert refined == []
    assert got == want
    empty = [raw for raw, e in zip(lists, got) if not e.terms]
    repeated = [raw for raw in lists if len(set(raw[0][0])) < len(raw[0][0])]
    assert any(not atoms_satisfiable(raw[0][0]) for raw in empty) and repeated


def test_make_exp_polynomial_refines_each_distinct_guard_once(monkeypatch):
    asked = []

    def spy(guard):
        asked.append(guard)
        return disjoint_conjunctions(guard)

    monkeypatch.setattr(measure, "disjoint_conjunctions", spy)
    for raw in POOLED_RAW_TERM_LISTS:
        asked.clear()
        e = make_exp_polynomial(2, ("a", "b"), raw)
        distinct = list(dict.fromkeys(g for g, poly, _ in raw if not poly.is_zero()))
        assert asked == distinct
        # an atom-tuple guard is its own one piece and is not cut again
        asked.clear()
        make_exp_polynomial(2, ("a", "b"), [(t.guard, t.poly, t.exponent) for t in e.terms])
        assert asked == []


def test_make_exp_polynomial_asks_only_conjunctive_queries(sat_queries):
    for raw in RAW_TERM_LISTS:
        names = sorted(set().union(*(free_variables(g) for g, _, _ in raw)))
        make_exp_polynomial(2, names, raw)
    assert sat_queries["atoms_satisfiable"] and not sat_queries["is_satisfiable"]
    assert not sat_queries["qe"]


def test_make_exp_polynomial_regions_partition_and_keep_values():
    for raw in RAW_TERM_LISTS:
        names = sorted(set().union(*(free_variables(g) for g, _, _ in raw)))
        e = make_exp_polynomial(2, names, raw)
        guards = list(dict.fromkeys(t.guard for t in e.terms))
        assert all(isinstance(a, Atom) for g in guards for a in g), guards
        assert all(simplify_conjunction(g) == g for g in guards), guards
        formulas = [conj(g) for g in guards]
        for values in itertools.product(range(-3, 13), repeat=len(names)):
            point = dict(zip(names, values))
            assert sum(evaluate_qf(g, point) for g in formulas) <= 1, (guards, point)
            want = sum(
                (poly.evaluate(point) * Fraction(2) ** exponent.evaluate(point)
                 for guard, poly, exponent in raw if evaluate_qf(guard, point)),
                Fraction(0),
            )
            try:
                got = exp_poly_eval(e, point)
            except OutOfDomainError:
                got = Fraction(0)
            assert got == want, (raw, point)


def _as_atom_tuples(raw):
    """raw with each formula guard replaced by its disjoint pieces, one raw
    term per piece, each piece in canonical atom order."""
    return [(simplify_conjunction(piece), poly, exponent)
            for guard, poly, exponent in raw for piece in disjoint_conjunctions(guard)]


def test_formula_guards_give_what_their_atom_tuples_give():
    # library callers may pass formula guards, disjunctions and negations
    # included; they are cut once at entry into the pieces that atom-tuple
    # guards name directly
    negated = neg(divides(3, LinearTerm.make({"a": 1}, 1)))
    either = disj([parse("a >= 4"), parse("b <= -1 /\\ 2 | a")])
    extra = [[(negated, Polynomial.constant(2), LinearTerm.make({"a": -1})),
              (either, Polynomial.variable("b"), LinearTerm.constant(0)),
              (parse("a >= 0 /\\ b >= 0"), Polynomial.constant(-1), LinearTerm.make({"a": -1}))]]
    for raw in extra + POOLED_RAW_TERM_LISTS + RAW_TERM_LISTS:
        want = make_exp_polynomial(2, ("a", "b"), raw)
        assert make_exp_polynomial(2, ("a", "b"), _as_atom_tuples(raw)) == want, raw


def test_atom_tuple_guards_evaluate_as_their_printed_formulas():
    # exp_poly_eval and PiecewisePolynomial.evaluate test the atoms; the
    # printed guard, read back, must hold at exactly the same points
    def printed(guard):
        return parse(format_formula(conj(guard)))

    for raw in RAW_TERM_LISTS[:8]:
        e = make_exp_polynomial(2, ("a", "b"), raw)
        formulas = {t.guard: printed(t.guard) for t in e.terms}
        for point in (dict(zip("ab", v)) for v in itertools.product(range(-4, 9), repeat=2)):
            hit = [t for t in e.terms if evaluate_qf(formulas[t.guard], point)]
            try:
                got = exp_poly_eval(e, point)
            except OutOfDomainError:
                assert not hit, point
                continue
            assert got == sum((t.poly.evaluate(point) * Fraction(2) ** t.exponent.evaluate(point)
                               for t in hit), Fraction(0)), point
    rng = random.Random(7)
    for _ in range(12):
        f, lams, params, domain = random_finite_family(rng)
        pp = count_parametric(to_cells(f, lams, params), domain, params)
        for values in itertools.product(range(-2, 9), repeat=len(params)):
            point = dict(zip(params, values))
            hits = [poly for guard, poly in pp.pieces if evaluate_qf(printed(guard), point)]
            if not hits:
                with pytest.raises(OutOfDomainError):
                    pp.evaluate(point)
                continue
            assert len(hits) == 1 and pp.evaluate(point) == hits[0].evaluate(point), point


# roles of the lambda variables l1, l2, ... (outermost first): "up" and
# "down" rays, "geometric" ranges (nonzero exponent increment), "flat"
# ranges (increment 0) and "point"s pinned to s.  Each variable's bounds are
# constants or read s, so a tower has one level per variable, and the flat
# range comes first, between or last of the levels sum_over_tower sums
CELL_ROLES = {
    "flat innermost": ("up", "geometric", "flat"),
    "flat between": ("down", "point", "flat", "geometric"),
    "flat outermost": ("flat", "geometric", "up"),
}


def _role_cell(rng, ctx, roles):
    names = tuple(f"l{i + 1}" for i in range(len(roles)))
    s = LinearTerm.variable("s")
    atoms, b = [], {}
    for name, role in zip(names, roles):
        v = LinearTerm.variable(name)
        low = rng.randint(-1, 1)
        if role == "point":
            atoms.append(eq0(v - s - low))
            b[name] = rng.randint(-1, 1)
            continue
        if role == "down":
            atoms.append(geq0(s + low - v))
        else:
            atoms.append(geq0(v - low))
        if role in ("geometric", "flat"):
            top = (s + low + rng.randint(0, 2) if rng.random() < 0.5
                   else LinearTerm.constant(low + rng.randint(1, 3)))
            atoms.append(geq0(top - v))
        if rng.random() < 0.3:
            atoms.append(divides(2, v - rng.randint(0, 1)))
        # the cell volume adds -1 to each exponent coefficient
        b[name] = {"up": rng.choice((-1, 0)), "down": rng.choice((2, 3)),
                   "geometric": rng.choice((-1, 0, 2)), "flat": 1}[role]
    weight = Weight.make(1, LinearTerm.make({"s": rng.randint(-1, 1)}, rng.randint(-1, 1)), b)
    coords = tuple(Coordinate(Fraction(rng.randint(-1, 1)), 1, 1) for _ in names)
    cell = BoxCell(coords, names, conj(atoms), weight)
    return presentation(ctx, [(Fraction(rng.randint(1, 3)), cell)], ["s"], parse("s >= 0"))


def _increments(tower, weight):
    """(kind, exponent increment) of each ray and range, innermost first,
    along the sum's leading term"""
    out = []
    for level in reversed(tower.levels):
        if level.kind != "point":
            out.append((level.kind, weight.coeff(level.var) * level.step))
        weight = weight.substitute(level.var, level.start)
    return out


def _flat_placement(increments):
    flat = [i for i, (kind, gamma) in enumerate(increments) if kind == "range" and gamma == 0]
    moving = [i for i, (_, gamma) in enumerate(increments) if gamma != 0]
    if not flat or not moving or all(kind != "ray" for kind, _ in increments):
        return None
    if flat[0] < min(moving):
        return "flat innermost"
    return "flat outermost" if flat[0] > max(moving) else "flat between"


@pytest.mark.parametrize("placement", list(CELL_ROLES))
def test_tower_sums_with_rays_lie_in_oracle_brackets(placement, monkeypatch):
    rng = random.Random(f"rays {placement}")
    seen = set()
    sum_over_tower = measure.sum_over_tower

    def spy(tower, weight, p):
        seen.add(_flat_placement(_increments(tower, weight)))
        return sum_over_tower(tower, weight, p)

    monkeypatch.setattr(measure, "sum_over_tower", spy)
    for _ in range(6):
        ctx = PAdicContext(rng.choice((2, 3)))
        pres = _role_cell(rng, ctx, CELL_ROLES[placement])
        mf = measure_function(pres)
        n = len(pres.generators[0][1].lambda_vars)
        for s in (0, 1, 3):
            bracket = truncated_measure(pres, {"s": s}, depth=8, window=12)
            assert mf.evaluate({"s": s}) in bracket, (pres, s)
            assert bracket.width <= Fraction(ctx.p) ** (n - 8)
    assert placement in seen
