import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from padicmeasure import measure, ring, semilinear
from padicmeasure.measure import (
    BoxCell,
    Coordinate,
    DegenerateCoordinate,
    DivergesError,
    ExpPolynomial,
    ExpTerm,
    InputError,
    PAdicContext,
    Weight,
    exp_poly_is_zero,
    make_exp_polynomial,
)
from padicmeasure.oracle import WindowTooSmallError, truncated_measure
from padicmeasure.presburger import (
    TRUE,
    Atom,
    LinearTerm,
    evaluate_qf,
    parse,
    simplify,
)
from padicmeasure.ring import (
    ALLOWED_RULES,
    Certificate,
    CertificateStep,
    ContextMismatchError,
    NotEqual,
    Presentation,
    add,
    ball_presentation,
    certificate_from_document,
    certificate_to_document,
    decide_equal,
    delta_presentation,
    find_invalid_step,
    from_document,
    measure_function,
    multiply,
    normalize_to_basic,
    permute_coordinates,
    presentation,
    raise_level,
    scalar_mul,
    shift_lambda,
    split_first_generator,
    to_document,
    translate_centers,
    unit_presentation,
    verify_certificate,
    weighted_presentation,
    with_unit_ball,
)
from padicmeasure.semilinear import NotRectilinearizableError

from generators import random_convergent_presentation, random_finite_family

CTX2 = PAdicContext(2)
CTX3 = PAdicContext(3)
CTX5 = PAdicContext(5)


def mu(pres, point=None):
    return measure_function(pres).evaluate(point or {})


def test_add_identity_and_cancellation():
    d = delta_presentation(CTX3, 1)
    zero = Presentation(CTX3, (), TRUE, ())
    assert mu(add(d, zero)) == mu(d)
    assert mu(add(d, scalar_mul(-1, d))) == 0
    two = add(ball_presentation(CTX3, 0), ball_presentation(CTX3, 0))
    assert mu(two) == 2


def test_add_context_mismatch():
    with pytest.raises(ContextMismatchError):
        add(delta_presentation(CTX3, 1), delta_presentation(CTX2, 1))


def test_multiply_unit_and_balls():
    d = delta_presentation(CTX3, 2)
    assert mu(multiply(unit_presentation(CTX3), d)) == mu(d)
    sq = multiply(ball_presentation(CTX2, 1), ball_presentation(CTX2, 1))
    assert mu(sq) == Fraction(1, 4)


def test_scalar_mul():
    d = delta_presentation(CTX2, 1)
    assert mu(scalar_mul(0, d)) == 0
    assert mu(scalar_mul(Fraction(1, 2 - 1), scalar_mul(2 - 1, d))) == mu(d)
    assert mu(add(scalar_mul(-1, d), d)) == 0


def test_measure_function_examples():
    assert mu(unit_presentation(CTX2)) == 1
    # p translates of pZp sum to the unit ball
    p = 3
    translates = ball_presentation(CTX3, 1, center=Fraction(0))
    for a in range(1, p):
        translates = add(translates, ball_presentation(CTX3, 1, center=Fraction(a)))
    assert mu(translates) == 1
    assert mu(delta_presentation(CTX2, 3)) == Fraction(1, 7)


def test_divergence_names_generator():
    bad = weighted_presentation(CTX2, parse("l >= 0"), Weight.constant(0))
    bad = add(unit_presentation(CTX2), bad)
    with pytest.raises(DivergesError) as err:
        measure_function(bad)
    assert err.value.generator == 1


def test_decide_equal_reflexive_and_scaled_balls():
    d = delta_presentation(CTX5, 2)
    assert bool(decide_equal(d, d))
    lhs = scalar_mul(3, ball_presentation(CTX3, 1))
    rhs = ball_presentation(CTX3, 0)
    assert bool(decide_equal(lhs, rhs))
    one = unit_presentation(CTX3)
    assert bool(decide_equal(scalar_mul(3 - 1, delta_presentation(CTX3, 1)), one))
    wrong = decide_equal(scalar_mul(2, delta_presentation(CTX3, 1)), scalar_mul(2, one))
    assert isinstance(wrong, NotEqual)
    assert wrong.value1 != wrong.value2


def test_diagonal_measure_all_primes():
    for p in (2, 3, 5, 7):
        ctx = PAdicContext(p)
        for n in range(1, 5):
            assert mu(delta_presentation(ctx, n)) == Fraction(1, p**n - 1)


def test_ball_classes():
    for p in (2, 3, 5):
        ctx = PAdicContext(p)
        for c in range(-5, 6):
            assert mu(ball_presentation(ctx, c)) == Fraction(p) ** (-c)
            assert mu(ball_presentation(ctx, c, center=Fraction(7, 3))) == Fraction(p) ** (-c)


def test_level_identity_random():
    rng = random.Random(31)
    for _ in range(10):
        pres = random_convergent_presentation(rng, CTX3, allow_params=True, max_generators=1)
        # force level 1 first
        coeff, cell = pres.generators[0]
        coords1 = tuple(Coordinate(c.center, 1, 1) for c in cell.coords)
        base = Presentation(CTX3, pres.param_vars, pres.param_domain,
                            ((coeff, BoxCell(coords1, cell.lambda_vars,
                                             cell.lambda_formula, cell.weight)),))
        for level in (1, 2, 3):
            coords = tuple(Coordinate(c.center, level, 1) for c in cell.coords)
            leveled = Presentation(CTX3, pres.param_vars, pres.param_domain,
                                   ((coeff, BoxCell(coords, cell.lambda_vars,
                                                    cell.lambda_formula, cell.weight)),))
            n = len(cell.lambda_vars)
            scale = Fraction(3) ** ((level - 1) * n)
            assert bool(decide_equal(scalar_mul(scale, leveled), base))


def test_products_multiply_measures():
    rng = random.Random(13)
    for _ in range(8):
        a = random_convergent_presentation(rng, CTX2, allow_params=False, max_generators=1)
        b = random_convergent_presentation(rng, CTX2, allow_params=False, max_generators=1)
        prod = multiply(a, b)
        assert mu(prod) == mu(a) * mu(b)


def test_special_case_weight_shift():
    # adding a constant c to the weight scales the measure by p^c
    w = Weight.make(1, LinearTerm.constant(0), {"l": -1})
    base = weighted_presentation(CTX3, parse("l >= 0"), w)
    for c in (-2, 1, 3):
        shifted = weighted_presentation(
            CTX3, parse("l >= 0"), Weight.make(1, LinearTerm.constant(c), {"l": -1})
        )
        assert mu(shifted) == Fraction(3) ** c * mu(base)


def test_ring_laws_at_measure_level():
    rng = random.Random(8)
    for _ in range(6):
        a = random_convergent_presentation(rng, CTX2, max_generators=1)
        b = random_convergent_presentation(rng, CTX2, max_generators=1)
        c = random_convergent_presentation(rng, CTX2, max_generators=1)
        a = Presentation(CTX2, ("s",), parse("s >= 0"), _padded(a))
        b = Presentation(CTX2, ("s",), parse("s >= 0"), _padded(b))
        c = Presentation(CTX2, ("s",), parse("s >= 0"), _padded(c))
        mf = {
            "a": measure_function(a), "b": measure_function(b), "c": measure_function(c),
            "a+b": measure_function(add(a, b)),
            "a*b": measure_function(multiply(a, b)),
            "a*(b+c)": measure_function(multiply(a, add(b, c))),
        }
        for _ in range(50):
            s = {"s": rng.randint(0, 25)}
            va, vb, vc = mf["a"].evaluate(s), mf["b"].evaluate(s), mf["c"].evaluate(s)
            assert mf["a+b"].evaluate(s) == va + vb
            assert mf["a*b"].evaluate(s) == va * vb
            assert mf["a*(b+c)"].evaluate(s) == va * (vb + vc)


def _padded(pres):
    return pres.generators


def test_normalize_case1_geometric():
    w = Weight.make(1, LinearTerm.constant(0), {"l": -1})
    xi = weighted_presentation(CTX3, parse("l >= 0"), w)
    ell, basic, cert = normalize_to_basic(xi)
    assert ell == 3 - 1
    assert mu(basic.presentation) == ell * mu(xi) == ell * Fraction(3, 2)
    assert bool(decide_equal(scalar_mul(ell, xi), basic.presentation))
    assert verify_certificate(cert)
    for coeff, cell in basic.presentation.generators:
        if cell.weight is not None:
            assert all(b == cell.weight.r for _, b in cell.weight.b)


def test_normalize_already_basic():
    w = Weight.make(1, LinearTerm.constant(3), {})
    xi = weighted_presentation(CTX2, parse("l = 5"), w)
    ell, basic, cert = normalize_to_basic(xi)
    assert ell == 1
    assert bool(decide_equal(xi, basic.presentation))
    assert verify_certificate(cert)


def test_normalize_case2_parametric_tails():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    ell, basic, cert = normalize_to_basic(xi)
    mfb = measure_function(basic.presentation)
    for s in range(0, 21):
        want = ell * sum(Fraction(2) ** (-l - 1) for l in range(s))
        assert mfb.evaluate({"s": s}) == want
    assert bool(decide_equal(scalar_mul(ell, xi), basic.presentation))
    assert verify_certificate(cert)
    assert len(basic.fiber_counts) == len(basic.presentation.generators)


def test_normalize_mixed_tail_rates_takes_lcm():
    wa = Weight.make(1, LinearTerm.constant(0), {"l": -1})
    wb = Weight.make(1, LinearTerm.constant(0), {"l": -2})
    both = add(
        weighted_presentation(CTX3, parse("l >= 0"), wa),
        weighted_presentation(CTX3, parse("l >= 0"), wb),
    )
    ell, basic, cert = normalize_to_basic(both)
    assert ell == 8  # lcm of 3 - 1 and 3^2 - 1
    assert bool(decide_equal(scalar_mul(ell, both), basic.presentation))
    assert verify_certificate(cert)


def test_normalize_downward_tail():
    # bounded above, unbounded below, exponent increasing towards the bound
    w = Weight.make(1, LinearTerm.constant(0), {"l": 3})
    pres = weighted_presentation(CTX3, parse("l <= 5"), w)
    value = measure_function(pres).evaluate({})
    assert value == Fraction(3**15) / (1 - Fraction(1, 27))
    ell, basic, cert = normalize_to_basic(pres)
    assert bool(decide_equal(scalar_mul(ell, pres), basic.presentation))
    assert verify_certificate(cert)


def test_normalize_parametric_shear():
    w = Weight.make(1, LinearTerm.constant(-2), {"l1": -1, "l2": -2})
    pres = weighted_presentation(
        CTX3, parse("0 <= l1 /\\ l1 <= l2 /\\ l2 < s"), w, ["s"], parse("s >= 0")
    )
    mf = measure_function(pres)
    for s in range(0, 13):
        want = sum(
            Fraction(3) ** int(w.affine().evaluate({"l1": a, "l2": b}))
            for a in range(s) for b in range(a, s)
        )
        assert mf.evaluate({"s": s}) == want
    ell, basic, cert = normalize_to_basic(pres)
    assert bool(decide_equal(scalar_mul(ell, pres), basic.presentation))
    assert verify_certificate(cert)


def test_normalize_retries_a_blocked_variable_order(monkeypatch):
    # summing a first would leave b's kept range referencing a, so the
    # order (a, b) blocks and normalization goes on with (b, a)
    w = Weight.make(1, LinearTerm.constant(0), {"a": -2})
    pres = weighted_presentation(CTX2, parse("0 <= b /\\ b <= a"), w)
    assert mu(pres) == Fraction(16, 9)
    ell, basic, cert = normalize_to_basic(pres)
    assert (ell, mu(basic.presentation)) == (9, 16)
    assert find_invalid_step(cert) is None
    monkeypatch.setattr(semilinear, "variable_orders", lambda names: [tuple(names)])
    with pytest.raises(NotRectilinearizableError, match="no variable order"):
        normalize_to_basic(pres)


# sha256 over 400 weighted presentations: the random_finite_family formulas
# of random.Random(5), each summed over every variable with a random weight
# (r in {1, 2}) at p = 2 or 3.  Each normalization adds a line of ell and
# the certificate's json.dumps text, each failure one of the error's type
# and message, so the first error a bad input meets cannot move unseen; an
# intended change to normalization updates it
NORMALIZE_OUTCOMES_SHA256 = (
    "5585ca7c0a0d5638627cbaa4ea4f0f922ead1b16bbb1d731a9724c8cb819a478")


def test_normalize_outcomes_match_their_digest():
    # an input that normalization rejects is rejected by measure_function
    # with the same error, less measure's " (generator i)" suffix: both
    # walk a tower first branch first
    rng = random.Random(5)
    digest = hashlib.sha256()
    outcomes = Counter()
    disagreements = []
    for index in range(400):
        formula, lams, params, _ = random_finite_family(rng)
        weight = Weight.make(rng.choice((1, 1, 2)), LinearTerm.constant(rng.randint(-2, 2)),
                             {v: rng.randint(-3, 1) for v in lams + params})
        pres = weighted_presentation(PAdicContext(rng.choice((2, 3))), formula, weight)
        try:
            ell, _, cert = normalize_to_basic(pres)
            line = f"{ell} {json.dumps(certificate_to_document(cert))}"
            outcomes["normalized"] += 1
        except (DivergesError, InputError, NotRectilinearizableError) as err:
            line = f"{type(err).__name__}: {err}"
            outcomes[type(err).__name__] += 1
            try:
                measure_function(pres)
                measured = "no error"
            except (DivergesError, InputError, NotRectilinearizableError) as again:
                measured = f"{type(again).__name__}: {again}"
            if re.sub(r" \(generator \d+\)$", "", measured) != line:
                disagreements.append((index, line, measured))
        digest.update(line.encode() + b"\n")
    assert outcomes == {"normalized": 89, "DivergesError": 189, "InputError": 122}
    assert not disagreements, disagreements
    assert digest.hexdigest() == NORMALIZE_OUTCOMES_SHA256


@pytest.mark.parametrize("lam, c, b", [
    ("l1 >= 0 /\\ l2 >= 0 /\\ l3 >= 0 /\\ l2 >= l3", 2, {"l1": 1, "l3": -1}),
    ("l1 >= 0 /\\ l2 >= 0 /\\ l3 >= 0 /\\ l3 <= l2", 2, {"l3": -2}),
    ("l1 >= 0 /\\ l2 >= 0 /\\ l3 >= 0 /\\ l3 <= l2", 0, {"l2": 1, "l3": -3}),
])
def test_normalize_reports_the_error_of_the_first_branch_of_a_split(lam, c, b):
    # l3's range has width l2 + 1, so its two split branches fold to weights
    # that differ along l2: the first diverges along l2, the last along l1.
    # The peel reports the first branch's error, as measure_function does
    pres = weighted_presentation(CTX2, parse(lam), Weight.make(1, LinearTerm.constant(c), b))
    with pytest.raises(DivergesError, match=r"^measure diverges along l2 towards \+inf$"):
        normalize_to_basic(pres)
    with pytest.raises(DivergesError,
                       match=r"^measure diverges along l2 towards \+inf \(generator 0\)$"):
        measure_function(pres)


def test_normalize_peels_each_state_once_in_certificate_order(monkeypatch):
    # the split of l's range yields a +1 and a -1 branch; each state is
    # peeled once, as it is popped, and each peel that changes the
    # presented cells is the next step of the certificate, so the +1
    # branch's tail is summed first
    peeled = []

    def spy(state, p):
        out = peel_step(state, p)
        peeled.append((state, out[1]))
        return out

    peel_step = ring._peel_step
    monkeypatch.setattr(ring, "_peel_step", spy)
    w = Weight.make(1, LinearTerm.constant(0), {"l": 1})
    ell, _, cert = normalize_to_basic(weighted_presentation(CTX2, parse("0 <= l /\\ l <= 3"), w))
    assert ell == 1
    assert len({id(state) for state, _ in peeled}) == len(peeled)
    assert [(state.coeff, rule) for state, rule in peeled] == [
        (1, "CellSplit"), (1, "GeomSum"), (-1, "GeomSum")]
    assert [step.rule for step in cert.steps] == ["CellSplit"] + [rule for _, rule in peeled]
    for (state, _), step in zip(peeled, cert.steps[1:]):
        entry = (state.coeff, state.cell)
        assert entry in step.before.generators and entry not in step.after.generators


def test_normalize_splits_a_range_whose_weight_increases():
    # the exponent grows along l, so the range is split from its top end
    w = Weight.make(1, LinearTerm.constant(0), {"l": 1})
    pres = weighted_presentation(CTX2, parse("0 <= l /\\ l <= 3"), w)
    assert mu(pres) == 15
    ell, basic, cert = normalize_to_basic(pres)
    assert (ell, mu(basic.presentation)) == (1, 15)
    assert [step.rule for step in cert.steps] == ["CellSplit", "CellSplit", "GeomSum", "GeomSum"]
    assert find_invalid_step(cert) is None


def test_normalize_drops_empty_and_degenerate_generators():
    live = weighted_presentation(
        CTX3, parse("l >= 0"), Weight.make(1, LinearTerm.constant(0), {"l": -1})
    )
    empty_cell = BoxCell((Coordinate(Fraction(0), 1, 1),), ("l1",),
                         parse("l1 >= 0 /\\ l1 <= -1"))
    degenerate = BoxCell((DegenerateCoordinate(Fraction(2)),), (), parse("true"))
    cluttered = Presentation(
        CTX3, (), TRUE,
        ((Fraction(5), empty_cell), (Fraction(7), degenerate)) + live.generators,
    )
    ell, basic, cert = normalize_to_basic(cluttered)
    assert bool(decide_equal(scalar_mul(ell, cluttered), basic.presentation))
    assert verify_certificate(cert)
    # the degenerate coordinate goes through the writer and the reader
    doc = json.loads(json.dumps(certificate_to_document(cert)))
    r2 = next(step for step in doc["steps"] if step["rule"] == "R2")
    assert {"point": "2"} in [c for g in r2["before"]["generators"] for c in g["coords"]]
    back = certificate_from_document(doc)
    assert verify_certificate(back)
    assert certificate_to_document(back) == doc


def test_normalize_random_suite():
    rng = random.Random(2024)
    for _ in range(8):
        xi = random_convergent_presentation(rng, CTX2)
        ell, basic, cert = normalize_to_basic(xi)
        assert ell >= 1
        assert bool(decide_equal(scalar_mul(ell, xi), basic.presentation))
        assert verify_certificate(cert)


def test_two_parameter_rectangle_factorizes():
    dom = parse("s >= 0 /\\ t >= 0")
    rect = weighted_presentation(
        CTX2, parse("0 <= l1 /\\ l1 < s /\\ 0 <= l2 /\\ l2 < t"),
        Weight.make(1, LinearTerm.constant(-4), {"l1": -1, "l2": -1}),
        ["s", "t"], dom,
    )
    half = Weight.make(1, LinearTerm.constant(-2), {"l1": -1})
    left = weighted_presentation(CTX2, parse("0 <= l1 /\\ l1 < s"), half, ["s", "t"], dom)
    right = weighted_presentation(CTX2, parse("0 <= l1 /\\ l1 < t"), half, ["s", "t"], dom)
    assert bool(decide_equal(multiply(left, right), rect))
    verdict = decide_equal(scalar_mul(Fraction(9, 8), multiply(left, right)), rect)
    assert isinstance(verdict, NotEqual)
    assert set(verdict.witness_dict()) == {"s", "t"}
    assert verdict.value1 != verdict.value2
    ell, basic, cert = normalize_to_basic(rect)
    assert bool(decide_equal(scalar_mul(ell, rect), basic.presentation))
    assert verify_certificate(cert)


def test_certificate_tampering_detected():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    _, _, cert = normalize_to_basic(xi)
    assert find_invalid_step(cert) is None
    step = cert.steps[1]
    bad = Certificate(
        cert.steps[:1]
        + (CertificateStep(step.rule, step.note, step.before, scalar_mul(2, step.after)),)
        + cert.steps[2:]
    )
    assert find_invalid_step(bad) == 1
    bogus = Certificate((CertificateStep("R99", "nope", step.before, step.after),))
    assert not verify_certificate(bogus)


def _mutate_step(rng, step):
    """Corrupt one semantically meaningful field of one side of a step."""
    side = step.after
    which = rng.choice(("coeff", "formula", "weight", "rule"))
    if which == "rule":
        return CertificateStep("R0", step.note, step.before, step.after)
    index = rng.randrange(len(side.generators)) if side.generators else 0
    gens = list(side.generators)
    if not gens:
        return CertificateStep(step.rule, step.note, step.before,
                               scalar_mul(2, step.before))
    coeff, cell = gens[index]
    if which == "coeff":
        gens[index] = (coeff + Fraction(1, 3), cell)
    elif which == "formula":
        extra = parse(f"{cell.lambda_vars[0]} >= 1") if cell.lambda_vars else parse("false")
        gens[index] = (coeff, BoxCell(cell.coords, cell.lambda_vars,
                                      cell.lambda_formula & extra, cell.weight))
    else:
        w = cell.weight if cell.weight is not None else Weight.make(1, LinearTerm.constant(0), {})
        bumped = Weight.make(w.r, w.c + w.r, dict(w.b))
        gens[index] = (coeff, BoxCell(cell.coords, cell.lambda_vars,
                                      cell.lambda_formula, bumped))
    mutated = Presentation(side.ctx, side.param_vars, side.param_domain, tuple(gens))
    return CertificateStep(step.rule, step.note, step.before, mutated)


def _fuzzed_certificates():
    """Twelve (index, certificate) pairs, each with step index mutated."""
    rng = random.Random(17)
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    _, _, cert = normalize_to_basic(xi)
    for trial in range(12):
        index = rng.randrange(len(cert.steps))
        step = cert.steps[index]
        # only mutations that actually change a measure (or the rule tag)
        # must flip the verdict; implied-atom noise is measure-neutral
        for _ in range(20):
            mutated = _mutate_step(rng, step)
            if mutated.rule not in ("R0",) and bool(
                decide_equal(step.after, mutated.after)
            ):
                continue
            break
        yield index, Certificate(cert.steps[:index] + (mutated,) + cert.steps[index + 1:])


def test_certificate_fuzzed_mutations_all_detected():
    for trial, (index, fuzzed) in enumerate(_fuzzed_certificates()):
        assert find_invalid_step(fuzzed) == index, (trial, index, fuzzed.steps[index].rule)


def _exp_poly_add(a, b):
    if a.p != b.p:
        raise ValueError(f"cannot add exponential polynomials for p = {a.p} and p = {b.p}")
    param_vars = tuple(sorted(set(a.param_vars) | set(b.param_vars)))
    raw = [(t.guard, t.poly, t.exponent) for t in a.terms + b.terms]
    return make_exp_polynomial(a.p, param_vars, raw)


def _exp_poly_scale(a, k):
    """k * a; scaling keeps guards, exponent classes and term order, so the
    result stays canonical."""
    if k == 0:
        return ExpPolynomial(a.p, a.param_vars, ())
    terms = tuple(ExpTerm(t.guard, t.poly.scale(k), t.exponent) for t in a.terms)
    return ExpPolynomial(a.p, a.param_vars, terms)


def _whole_snapshot_invalid_step(cert, start=0):
    """Reference replay: the measure of each whole side of every step from
    start on; the steps before start are taken to replay."""
    for i, step in enumerate(cert.steps):
        if i < start:
            continue
        before, after = step.before, step.after
        if step.rule not in ALLOWED_RULES:
            return i
        if i and before != cert.steps[i - 1].after:
            return i
        if (before.ctx, before.param_vars, before.param_domain) != (
                after.ctx, after.param_vars, after.param_domain):
            return i
        try:
            mfa, mfb = measure_function(before), measure_function(after)
        except (DivergesError, InputError):
            return i
        diff = _exp_poly_add(mfa.exp_poly, _exp_poly_scale(mfb.exp_poly, Fraction(-1)))
        if exp_poly_is_zero(diff, before.param_domain) is not None:
            return i
    return None


def test_replay_matches_whole_snapshot_reference():
    # the 50 presentations of acceptance criterion 08, each certificate as
    # built and with one fuzzed mutation, plus the fuzzed mutations above
    rng = random.Random(808)
    fuzz = random.Random(18)
    certs = []
    for _ in range(50):
        ctx = PAdicContext(rng.choice((2, 3, 5)))
        _, _, cert = normalize_to_basic(random_convergent_presentation(rng, ctx))
        index = fuzz.randrange(len(cert.steps))
        mutated = _mutate_step(fuzz, cert.steps[index])
        certs += [cert, Certificate(cert.steps[:index] + (mutated,) + cert.steps[index + 1:])]
    certs += [fuzzed for _, fuzzed in _fuzzed_certificates()]
    outcomes = [find_invalid_step(c) for c in certs]
    assert outcomes == [_whole_snapshot_invalid_step(c) for c in certs]
    assert outcomes[0:100:2] == [None] * 50 and any(k is not None for k in outcomes)


def _snapshots_certificate(cert, snapshots):
    """cert's rules and notes over the snapshots, step i from snapshot i to
    snapshot i + 1."""
    return Certificate(tuple(CertificateStep(step.rule, step.note, before, after)
                             for step, before, after
                             in zip(cert.steps, snapshots, snapshots[1:])))


def _with_generators(pres, gens):
    return Presentation(pres.ctx, pres.param_vars, pres.param_domain, tuple(gens))


def _shared_ends(before, after):
    """Lengths of the longest common prefix and, of the rest, suffix."""
    n = min(len(before), len(after))
    head = next((i for i in range(n) if before[i] != after[i]), n)
    tail = next((i for i in range(n - head) if before[-1 - i] != after[-1 - i]), n - head)
    return head, tail


def _tampered_snapshots(snapshots, j, way, ctx):
    """The snapshots with step j tampered one way; a tamper of snapshot
    j + 1 is step j's after and step j + 1's before, so the steps chain."""
    out = list(snapshots)
    if way == "append":
        # a new cell on even steps, a copy of the last entry on odd ones,
        # which the shared prefix and suffix must not both claim
        gens = out[j + 1].generators
        extra = (Fraction(1), BoxCell((Coordinate(Fraction(0), 1, 1),), ("l1",), parse("l1 >= 0")))
        if j % 2 and gens:
            extra = gens[-1]
        out[j + 1] = _with_generators(out[j + 1], gens + (extra,))
    elif way == "shared":
        # a coefficient of an entry that before and after share: the first
        # of the prefix on even steps, the last of the suffix on odd ones
        gens = list(out[j + 1].generators)
        if not gens:
            return None
        head, tail = _shared_ends(out[j].generators, gens)
        at = -1 if tail and (j % 2 or not head) else 0
        gens[at] = (gens[at][0] + 1, gens[at][1])
        out[j + 1] = _with_generators(out[j + 1], gens)
    else:
        # a divergent cell in every snapshot from step j's before on: step
        # j - 1 adds it, and step 0 holds it on both sides, where it cancels
        (divergent,) = weighted_presentation(ctx, parse("l >= 0"), Weight.constant(0)).generators
        for k in range(j, len(out)):
            out[k] = _with_generators(out[k], (divergent,) + out[k].generators)
    return out


def test_replay_of_changed_generators_matches_the_whole_snapshot_reference():
    # replay nets only the entries between the shared prefix and suffix of
    # a step's sides after the first step; each certificate, squared ones
    # included, is tampered at every step in three ways, and the first
    # invalid step must be the one the reference finds on whole snapshots
    rng = random.Random(3535)
    certs = []
    while len(certs) < 12:
        ctx = rng.choice((CTX2, CTX3))
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
        if len(certs) % 3 == 2:
            pres = multiply(pres, pres)
        cert = normalize_to_basic(pres)[2]
        # every tampered copy replays up to its step: k steps cost k^2 / 2
        if len(cert.steps) <= 60:
            certs.append(cert)
    outcomes = Counter()
    for cert in certs:
        assert find_invalid_step(cert) is None
        snapshots = [cert.steps[0].before] + [step.after for step in cert.steps]
        ctx = snapshots[0].ctx
        for j in range(len(cert.steps)):
            for way in ("append", "shared", "divergent"):
                tampered = _tampered_snapshots(snapshots, j, way, ctx)
                if tampered is None:
                    continue
                first = next(i for i, (a, b) in enumerate(zip(snapshots, tampered)) if a is not b)
                bad = _snapshots_certificate(cert, tampered)
                got = find_invalid_step(bad)
                assert got == _whole_snapshot_invalid_step(bad, max(first - 1, 0)), (way, j)
                outcomes[way, got is None or got - j] += 1
    # the appended generator and the divergent cell are always caught; a
    # changed shared coefficient is caught where it changes a measure
    assert sum(outcomes.values()) > 300
    assert {key for key in outcomes if key[0] != "shared"} == {
        ("append", 0), ("divergent", 0), ("divergent", -1)}
    assert outcomes["shared", 0] > 0


def test_replay_requires_steps_to_chain():
    _, first = with_unit_ball(ball_presentation(CTX3, 0))
    _, second = with_unit_ball(delta_presentation(CTX3, 1))
    assert verify_certificate(Certificate((first,)))
    assert verify_certificate(Certificate((second,)))
    assert find_invalid_step(Certificate((first, second))) == 1


def _step(before_gens, after_gens):
    """A hand-built step over the parameter-free base for p = 2."""
    def side(gens):
        return Presentation(CTX2, (), TRUE, tuple(gens))
    return CertificateStep("R1", "hand-built", side(before_gens), side(after_gens))


def test_replay_rejects_a_cancelled_divergent_generator():
    (one,) = unit_presentation(CTX2).generators
    (divergent,) = weighted_presentation(CTX2, parse("l >= 0"), Weight.constant(0)).generators
    step = _step([one, divergent], [divergent, one])
    assert find_invalid_step(Certificate((step,))) == 0
    with pytest.raises(DivergesError):
        measure_function(step.after)
    # decide_equal takes the same difference and names the divergent
    # generator by its index within the side where it is met first
    for left, right, index in ((step.before, step.after, 1), (step.after, step.before, 0)):
        with pytest.raises(DivergesError) as err:
            decide_equal(left, right)
        assert err.value.generator == index


def test_replay_rejects_a_cancelled_non_integral_weight():
    (one,) = unit_presentation(CTX2).generators
    half = BoxCell((Coordinate(Fraction(0), 1, 1),), ("l",), parse("l >= 0"),
                   Weight.make(2, LinearTerm.constant(0), {"l": 1}))
    step = _step([one, (Fraction(1), half)], [one, (Fraction(1), half)])
    assert find_invalid_step(Certificate((step,))) == 0
    with pytest.raises(InputError):
        measure_function(step.before)


def test_replay_accepts_a_coefficient_moved_between_copies():
    (one,) = unit_presentation(CTX2).generators
    cell = ball_presentation(CTX2, 1).generators[0][1]
    step = _step([(Fraction(2), cell), one], [(Fraction(1), cell), one, (Fraction(1), cell)])
    assert verify_certificate(Certificate((step,)))
    moved_wrong = _step([(Fraction(2), cell), one], [(Fraction(1), cell), one, (Fraction(2), cell)])
    assert find_invalid_step(Certificate((moved_wrong,))) == 0


def _equality_pairs():
    """Rewrite, product and changed-coefficient pairs over shared bases."""
    rng = random.Random(1010)
    for _ in range(4):
        ctx = rng.choice((CTX2, CTX3))
        a = random_convergent_presentation(rng, ctx, max_generators=2)
        ball = Presentation(ctx, a.param_vars, a.param_domain,
                            ball_presentation(ctx, 1).generators)
        coeff, cell = a.generators[0]
        changed = Presentation(ctx, a.param_vars, a.param_domain,
                               ((coeff + 1, cell),) + a.generators[1:])
        yield a, with_unit_ball(a)[0]
        yield a, permute_coordinates(a, 1)[0]
        yield multiply(a, ball), scalar_mul(Fraction(1, ctx.p), a)
        yield multiply(ball, a), a
        yield a, changed
        yield changed, shift_lambda(a, 2)[0]


def test_decide_equal_on_a_domain_with_a_pinned_parameter():
    # the domain's tower pins s to 2*t, a point level of the zero test
    domain = parse("s = 2*t /\\ t >= 0")
    ball = ball_presentation(CTX2, 0, param_vars=("s", "t"), param_domain=domain)
    assert decide_equal(ball, scalar_mul(2, ball)) == NotEqual(
        (("s", 0), ("t", 0)), Fraction(1), Fraction(2))


def test_decide_equal_agrees_with_one_step_replay():
    verdicts = []
    for a, b in _equality_pairs():
        verdict = decide_equal(a, b)
        step = CertificateStep("R1", "one step from a to b", a, b)
        assert bool(verdict) == (find_invalid_step(Certificate((step,))) is None)
        if not verdict:
            point = verdict.witness_dict()
            assert verdict.value1 == measure_function(a).evaluate(point)
            assert verdict.value2 == measure_function(b).evaluate(point)
            assert verdict.value1 != verdict.value2
        verdicts.append(bool(verdict))
    assert True in verdicts and False in verdicts


def test_decide_equal_measures_each_distinct_cell_once(monkeypatch):
    cells, handed = [], []
    generator_terms, make_exp_polynomial = ring._generator_terms, ring.make_exp_polynomial

    def terms_spy(cell, *base):
        cells.append(cell)
        return generator_terms(cell, *base)

    def make_spy(p, param_vars, raw):
        raw = list(raw)
        handed.append(len(raw))
        return make_exp_polynomial(p, param_vars, raw)

    monkeypatch.setattr(ring, "_generator_terms", terms_spy)
    monkeypatch.setattr(ring, "make_exp_polynomial", make_spy)
    pres = _domain_integral_presentation()
    gens = pres.generators * 2 + ball_presentation(CTX2, 1).generators
    pres = Presentation(CTX2, pres.param_vars, pres.param_domain, gens)
    assert bool(decide_equal(pres, pres))
    assert len(cells) == len(set(cells)) == 2
    # every cell nets to zero, so the canonical form is handed no term
    assert handed == [0]
    # the parts of a split at l1 <= s - 3 have guards on s that the whole
    # cell lacks: their terms cancel only region by region
    whole = presentation(CTX2, delta_presentation(CTX2, 1).generators, ["s"], parse("s >= 0"))
    split, _ = split_first_generator(whole, parse("l1 <= s - 3"))
    assert bool(decide_equal(whole, split))
    assert len(handed) == 2 and handed[1] > 0


def test_a_difference_is_canonicalized_from_its_nonzero_sums(monkeypatch):
    # a presentation against a shuffled copy with translated centers, its
    # first generator split at 2 | l1 and its coefficients split in parts,
    # and against that copy with one coefficient doubled: the net cells'
    # terms are summed per (guard, exponent), only the nonzero sums are
    # canonicalized, and the values are those of the canonical form of the
    # terms of every generator, un-netted
    rng = random.Random(3536)
    # the raw terms and refine calls of ring's canonicalization, not of the
    # closed forms
    handed, refinements = [], []
    refine, canonical = measure.refine, ring.make_exp_polynomial

    def canonical_spy(p, param_vars, raw):
        handed[:] = raw
        refinements.clear()
        return canonical(p, param_vars, raw)

    monkeypatch.setattr(measure, "refine",
                        lambda *args: refinements.append(args) or refine(*args))
    monkeypatch.setattr(ring, "make_exp_polynomial", canonical_spy)
    zeros = nonzeros = 0
    for _ in range(30):
        ctx = rng.choice((CTX2, CTX3))
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
        moved = translate_centers(pres, Fraction(rng.randint(1, 5), 3))[0]
        moved = split_first_generator(moved, parse("2 | l1"))[0]
        gens = [(coeff * part, cell) for coeff, cell in moved.generators
                for part in (Fraction(1, 3), Fraction(2, 3))]
        rng.shuffle(gens)
        changed = [(2 * gens[0][0], gens[0][1])] + gens[1:]
        points = [{"s": s} for s in range(7)] if pres.param_vars else [{}]
        for other in (gens, changed):
            sides = [(1, pres.generators), (-1, tuple(other))]
            closed_forms = {}
            got = ring._signed_measure(pres, sides, closed_forms)
            refined = len(refinements)
            net = Counter()
            for sign, generators in sides:
                for coeff, cell in generators:
                    net[cell] += sign * coeff
            sums = {}
            for cell, coeff in net.items():
                for t in closed_forms[cell] if coeff != 0 else ():
                    sums.setdefault((t.guard, t.exponent), []).append(t.poly.scale(coeff))
            raw = []
            for (guard, exponent), polys in sums.items():
                total = sum(polys[1:], polys[0])
                if not total.is_zero():
                    raw.append((guard, total, exponent))
            assert handed == raw
            want = make_exp_polynomial(ctx.p, pres.param_vars, raw)
            assert got == want and repr(got) == repr(want)
            unnetted = make_exp_polynomial(ctx.p, pres.param_vars, [
                (t.guard, t.poly.scale(sign * coeff), t.exponent)
                for sign, generators in sides for coeff, cell in generators
                for t in closed_forms[cell]])
            for point in points:
                assert (measure.MeasureFunction(got, pres.param_domain, pres.param_vars,
                                                ctx).evaluate(point)
                        == measure.MeasureFunction(unnetted, pres.param_domain,
                                                   pres.param_vars, ctx).evaluate(point))
            if raw:
                nonzeros += 1
                continue
            zeros += 1
            assert got == ExpPolynomial(ctx.p, pres.param_vars, ()) and refined == 0
    assert zeros > 15 and nonzeros > 15


def test_permute_coordinates_rewrite():
    base = multiply(ball_presentation(CTX3, 1), delta_presentation(CTX3, 1))
    rotated, step = permute_coordinates(base, 1)
    assert verify_certificate(Certificate((step,)))
    assert bool(decide_equal(base, rotated))


def test_hand_built_r4_step():
    base = ball_presentation(CTX3, 0)
    after, step = with_unit_ball(base)
    assert verify_certificate(Certificate((step,)))
    assert bool(decide_equal(base, after))


def test_rewrite_chain_preserves_measure():
    rng = random.Random(6)
    cur = delta_presentation(CTX3, 1)
    steps = []
    for fn in (
        with_unit_ball,
        lambda q: translate_centers(q, Fraction(5, 3)),
        lambda q: raise_level(q, 2),
        lambda q: split_first_generator(q, parse("2 | l1")),
        lambda q: shift_lambda(q, rng.randint(1, 4)),
    ):
        cur, st = fn(cur)
        steps.append(st)
    assert verify_certificate(Certificate(tuple(steps)))
    assert bool(decide_equal(delta_presentation(CTX3, 1), cur))


def test_document_round_trip():
    w = Weight.make(2, LinearTerm.make({"s": -2}, 0), {"l": -2})
    xi = weighted_presentation(
        CTX2, parse("l >= 0 /\\ 2 | l /\\ 2 | s"), w, ["s"], parse("s >= 0")
    )
    doc = to_document(xi)
    assert doc["prime"] == 2 and doc["generators"][0]["weight"]["r"] == 2
    assert "l1" in doc["generators"][0]["lambda_formula"]
    back = from_document(doc)
    assert bool(decide_equal(xi, back))


def _squared_presentation():
    # number 8 of random.Random(2026): its square has a generator with lambda
    # variables ('l1', 'l1_2', 'l2'), which renaming one at a time to l1..l3
    # used to merge (l1_2 -> l2, then l2 -> l3)
    rng = random.Random(2026)
    for _ in range(9):
        ctx = PAdicContext(rng.choice((2, 3)))
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
    return multiply(pres, pres)


def test_document_round_trip_keeps_lambda_variables_apart():
    sq = _squared_presentation()
    assert ("l1", "l1_2", "l2") in [cell.lambda_vars for _, cell in sq.generators]
    back = from_document(json.loads(json.dumps(to_document(sq))))
    assert bool(decide_equal(back, sq))
    _, _, cert = normalize_to_basic(sq)
    text = json.dumps(certificate_to_document(cert))
    assert verify_certificate(certificate_from_document(json.loads(text)))


def test_product_renaming_keeps_lambda_variables_apart():
    # the right factor's l1 becomes l1_2, which its own l1_2 must not absorb
    ball = ball_presentation(CTX2, 0)
    bounded = presentation(CTX2, [(1, BoxCell(
        (Coordinate(Fraction(0), 1, 1),) * 2, ("l1", "l1_2"),
        parse("0 <= l1 /\\ l1 <= 2 /\\ 0 <= l1_2 /\\ l1_2 <= 1"), None))])
    assert mu(multiply(ball, bounded)) == mu(ball) * mu(bounded)


def test_certificate_document_round_trip():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    _, _, cert = normalize_to_basic(xi)
    back = certificate_from_document(certificate_to_document(cert))
    assert verify_certificate(back)
    assert len(back.steps) == len(cert.steps)


_REPEATED_GENERATOR = {
    "coeff": "1", "dims": 1, "coords": [{"center": "0", "level": 1, "ac": 1}],
    "lambda_formula": "0 <= l1 /\\ l1 <= s", "weight": {"r": 1, "c": "s", "b": [-1]},
}


def _repeating_certificate(later: dict) -> dict:
    # step 1 repeats step 0's cell verbatim, in a snapshot changed by later
    snapshot = {"prime": 2, "param_vars": ["s"], "param_domain": "s >= 0",
                "generators": [_REPEATED_GENERATOR]}
    return {"steps": [{"rule": "R1", "note": "", "before": snapshot, "after": snapshot},
                      {"rule": "R1", "note": "", "before": snapshot,
                       "after": {**snapshot, **later}}]}


def test_certificate_reading_shares_equal_cells():
    cert = certificate_from_document(_repeating_certificate({}))
    sides = [side for step in cert.steps for side in (step.before, step.after)]
    assert all(side.generators[0][1] is sides[0].generators[0][1] for side in sides)
    assert all(side.param_domain is sides[0].param_domain for side in sides)
    assert verify_certificate(cert)
    # separate documents share no cells; an atom, such as this parameter
    # domain, is one object across them, as every equal atom in the table is
    snapshot = _repeating_certificate({})["steps"][0]["before"]
    first, second = from_document(snapshot), from_document(snapshot)
    assert first == second
    assert first.generators[0][1] is not second.generators[0][1]
    assert isinstance(first.param_domain, Atom)
    assert first.param_domain is second.param_domain


@pytest.mark.parametrize("later,error", [
    ({"param_vars": [], "param_domain": "true"}, InputError),
    ({"generators": [{**_REPEATED_GENERATOR, "coeff": "1/0"}]}, ValueError),
    ({"generators": [{**_REPEATED_GENERATOR, "coeff": 1}]}, InputError),
    ({"param_vars": ["s", "s"]}, InputError),
    ({"param_domain": "s >= 0 /\\ t >= 0"}, InputError),
], ids=["undeclared_parameter", "zero_denominator", "numeric_coeff", "repeated_parameter",
        "undeclared_domain_variable"])
def test_certificate_reading_checks_every_snapshot(later, error):
    with pytest.raises(error):
        certificate_from_document(_repeating_certificate(later))


def test_domain_names_only_declared_parameters():
    # the bound x of a quantified domain is not a parameter
    quantified = presentation(CTX2, [], ["s"], parse("E x. s = 2*x"))
    assert quantified.param_vars == ("s",)
    with pytest.raises(InputError, match="undeclared parameters \\['t'\\]"):
        presentation(CTX2, [], ["s"], parse("t >= 0"))
    with pytest.raises(InputError, match="declared twice"):
        presentation(CTX2, [], ["s", "s"])


def test_certificate_reading_stores_no_failed_cell():
    cells: dict = {}
    bad = {**_repeating_certificate({})["steps"][0]["before"],
           "generators": [{**_REPEATED_GENERATOR, "weight": {"r": 0, "c": "s", "b": [-1]}}]}
    with pytest.raises(InputError):
        ring._from_document(bad, cells)
    assert all(isinstance(key, str) for key in cells)


def _rewrite_chain():
    """A certificate whose steps repeat cells, and whose distinct cells share
    lambda formulas (the unit ball's p - 1 angular classes)."""
    cur, steps = ball_presentation(CTX3, 1), []
    for rewrite in (with_unit_ball, lambda q: translate_centers(q, Fraction(5, 3)),
                    lambda q: raise_level(q, 2), lambda q: permute_coordinates(q, 1)):
        cur, step = rewrite(cur)
        steps.append(step)
    return Certificate(tuple(steps))


def _distinct_cells(cert):
    return {cell for step in cert.steps for side in (step.before, step.after)
            for _, cell in side.generators}


def test_replay_measures_each_distinct_cell_once_per_certificate(monkeypatch):
    cells = []
    generator_terms = ring._generator_terms

    def spy(cell, *base):
        cells.append(cell)
        return generator_terms(cell, *base)

    monkeypatch.setattr(ring, "_generator_terms", spy)
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    for cert in (normalize_to_basic(xi)[2], _rewrite_chain()):
        del cells[:]
        assert find_invalid_step(cert) is None
        held = sum(len(side.generators) for step in cert.steps
                   for side in (step.before, step.after))
        assert len(cells) == len(set(cells)) < held
        assert set(cells) == _distinct_cells(cert)


def test_certificate_reading_parses_and_checks_each_distinct_cell_once(monkeypatch):
    cert = _rewrite_chain()
    doc = certificate_to_document(cert)
    gens = [g for step in doc["steps"] for side in ("before", "after")
            for g in step[side]["generators"]]
    texts = {g["lambda_formula"] for g in gens}
    cells = {json.dumps({**g, "coeff": None}) for g in gens}
    parsed, checked = [], []
    original_parse, original_validate = ring.parse, BoxCell.validate

    def parse_spy(text):
        parsed.append(text)
        return original_parse(text)

    def validate_spy(cell, ctx):
        checked.append(cell)
        return original_validate(cell, ctx)

    monkeypatch.setattr(ring, "parse", parse_spy)
    monkeypatch.setattr(BoxCell, "validate", validate_spy)
    back = certificate_from_document(json.loads(json.dumps(doc)))
    assert sorted(parsed) == sorted(texts) and len(texts) < len(cells) < len(gens)
    assert len(checked) == len(set(checked)) == len(cells)
    assert certificate_to_document(back) == doc


def test_certificate_writing_formats_each_distinct_cell_once(monkeypatch):
    cert = _rewrite_chain()
    want = json.dumps(certificate_to_document(cert))
    renamed, formatted = [], []
    original_rename, original_format = ring._rename, ring.format_formula

    def rename_spy(f, mapping):
        renamed.append(f)
        return original_rename(f, mapping)

    def format_spy(f):
        formatted.append(f)
        return original_format(f)

    monkeypatch.setattr(ring, "_rename", rename_spy)
    monkeypatch.setattr(ring, "format_formula", format_spy)
    doc = certificate_to_document(cert)
    distinct = len(_distinct_cells(cert))
    assert len(renamed) == distinct
    # one text per distinct parameter domain besides: every snapshot shares one
    domains = {side.param_domain for step in cert.steps for side in (step.before, step.after)}
    assert len(domains) == 1
    assert len(formatted) == distinct + len(domains)
    assert json.dumps(doc) == want
    assert [to_document(side) for step in cert.steps for side in (step.before, step.after)] == [
        step[side] for step in doc["steps"] for side in ("before", "after")]


def _mutate_document(value):
    """Change every dict and list reachable from value in place."""
    if isinstance(value, dict):
        for key in list(value):
            value[key] = _mutate_document(value[key])
        value["mutated"] = True
    elif isinstance(value, list):
        for i, item in enumerate(value):
            value[i] = _mutate_document(item)
        value.append("mutated")
    return value


def test_written_snapshots_share_no_mutable_object():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    doc = certificate_to_document(normalize_to_basic(xi)[2])
    sides = [step[side] for step in doc["steps"] for side in ("before", "after")]
    assert any(g["weight"] is not None for side in sides for g in side["generators"])
    for k in range(len(sides)):
        kept = [json.dumps(side) for side in sides]
        _mutate_document(sides[k]["generators"])
        now = [json.dumps(side) for side in sides]
        assert now[:k] + now[k + 1:] == kept[:k] + kept[k + 1:] and now[k] != kept[k]


def test_a_cell_that_fails_its_checks_fails_again_with_the_same_table():
    cells: dict = {}
    good = _repeating_certificate({})["steps"][0]["before"]
    ring._from_document(good, cells)  # the table now holds checked cells over this base
    coord = {"center": "0", "level": 1, "ac": 2}
    bad = {**good, "generators": [{**_REPEATED_GENERATOR, "coords": [coord]}]}
    for _ in range(2):
        with pytest.raises(InputError, match="ac value 2 is not a unit"):
            ring._from_document(bad, cells)


def test_normalized_snapshots_are_shared_by_consecutive_steps():
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    xi = weighted_presentation(CTX3, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0"))
    ell, basic, cert = normalize_to_basic(xi)
    assert ell != 1 and len(cert.steps) > 2
    assert basic.presentation is cert.steps[-1].after
    doc = certificate_to_document(cert)
    back = certificate_from_document(json.loads(json.dumps(doc)))
    assert certificate_to_document(back) == doc
    for steps in (cert.steps, back.steps):
        assert all(step.before is prev.after for prev, step in zip(steps, steps[1:]))


def _three_part_document() -> dict:
    """The certificate document of a sum of three generators over p = 2:
    its CellSplit steps keep the generators already done in front of the
    one they split and the remaining ones behind it.  Step 5 goes from four
    generators to five."""
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    parts = [weighted_presentation(CTX2, parse(f"0 <= l /\\ l < s + {k}"), w, ["s"],
                                   parse("s >= 0")) for k in range(3)]
    cert = normalize_to_basic(add(add(parts[0], parts[1]), parts[2]))[2]
    return json.loads(json.dumps(certificate_to_document(cert)))


def test_a_snapshot_changed_in_one_middle_generator_reads_and_breaks_the_chain():
    doc = _three_part_document()
    assert len(doc["steps"][5]["before"]["generators"]) == 4
    doc["steps"][5]["before"]["generators"][2]["coeff"] = "7/3"
    cert = certificate_from_document(doc)
    before, previous = cert.steps[5].before, cert.steps[4].after
    assert before.generators[2][0] == Fraction(7, 3)
    assert all(before.generators[k] is previous.generators[k] for k in (0, 1, 3))
    assert find_invalid_step(cert) == 5


def _drop_ac(g):
    del g["coords"][0]["ac"]


@pytest.mark.parametrize("index,change,message", [
    (2, lambda g: g["coords"][0].update(ac=2), "ac value 2 is not a unit modulo 2"),
    (2, lambda g: g["coords"][0].update(ac=True), "ac must be a JSON integer, got bool"),
    (2, lambda g: g["coords"][0].update(level=1.0), "level must be a JSON integer, got float"),
    (2, _drop_ac, "coordinate 0 of generator 2 of the before of step 5 has no field 'ac'"),
    (3, lambda g: g["weight"].update(b=[False]), "a weight b entry must be a JSON integer, got bool"),
    (0, lambda g: g["weight"].update(r=True), "weight r must be a JSON integer, got bool"),
    (1, lambda g: g.update(dims=0.0), "dims must be a JSON integer, got float"),
], ids=["ac_not_a_unit", "ac_true", "level_float", "ac_missing", "b_false", "r_true",
        "dims_float"])
def test_a_malformed_generator_among_equal_ones_raises_as_alone(index, change, message):
    # the other entries equal the previous snapshot's, and true == 1 and
    # 1.0 == 1 in Python: the changed entry must still be read and rejected
    doc = _three_part_document()
    gens = doc["steps"][5]["before"]["generators"]
    assert gens == doc["steps"][4]["after"]["generators"]
    change(gens[index])
    with pytest.raises(InputError) as err:
        certificate_from_document(doc)
    assert str(err.value) == message


def test_parameter_named_like_a_lambda_variable_is_rejected():
    # a document renames the lambda variable x to l1, which is a parameter here
    pres = weighted_presentation(CTX2, parse("0 <= x /\\ x <= l1"), Weight.constant(0),
                                 ["l1"], parse("l1 >= 0"))
    assert mu(pres, {"l1": 3}) == 4
    with pytest.raises(InputError):
        to_document(pres)
    cell = BoxCell((Coordinate(Fraction(0), 1, 1),), ("l1",), parse("l1 >= 0"), None)
    with pytest.raises(InputError):
        presentation(CTX2, [(1, cell)], ["l1"])


def _domain_integral_presentation():
    # the weight folds to s/2, an integer on the domain 2 | s only
    unit = {"center": "0", "level": 1, "ac": 1}
    return from_document({
        "prime": 2, "param_vars": ["s"], "param_domain": "2 | s /\\ s >= 0",
        "generators": [{"coeff": "1", "coords": [unit], "lambda_formula": "0 <= l1 /\\ l1 <= 3",
                        "weight": {"r": 2, "c": "s + 2", "b": [2]}}],
    })


def test_weight_needs_integer_values_only_on_the_domain():
    pres = _domain_integral_presentation()
    assert mu(pres, {"s": 4}) == 16
    assert 16 in truncated_measure(pres, {"s": 4})
    ell, basic, cert = normalize_to_basic(pres)
    assert verify_certificate(cert)
    assert decide_equal(scalar_mul(ell, pres), basic.presentation)


def test_free_lambda_variable_with_zero_net_weight_diverges():
    # the weight cancels the volume of l1, which the formula leaves free: the
    # sum of p^-1 over every integer l1 diverges
    cell = BoxCell((Coordinate(Fraction(0), 1, 1),), ("l1",), TRUE,
                   Weight.make(1, LinearTerm.constant(0), {"l1": 1}))
    pres = presentation(CTX2, [(1, cell)])
    with pytest.raises(DivergesError):
        measure_function(pres)
    with pytest.raises(DivergesError):
        decide_equal(pres, pres)
    with pytest.raises(DivergesError):
        normalize_to_basic(pres)
    with pytest.raises(WindowTooSmallError):
        truncated_measure(pres, {})


def _half_step_presentation(b):
    # l1 moves by 2 per step of l2, so an increment of b/2 along l1 is 3/2
    # or -3/2 once weighted_presentation adds the volume
    return weighted_presentation(CTX2, parse("l1 = 2*l2 /\\ l2 >= 0"),
                                 Weight.make(2, LinearTerm.constant(0), b))


def test_a_non_integral_increment_is_an_input_error():
    # measure and normalization test the increment before divergence, with
    # one message: the increment 3/2 once made normalization diverge
    for b, gamma in (({"l1": 1, "l2": 1}, "3/2"), ({"l1": -1, "l2": -1}, "-3/2")):
        pres = _half_step_presentation(b)
        for path in (measure_function, normalize_to_basic):
            with pytest.raises(InputError, match=(
                    f"^exponent increment {gamma} along l1 is not an integer$")):
                path(pres)


# weights with rational coefficients that are integers on the fiber: -2*l2
# on the first (measure 1365/4096 at p = 2) and -l2 on the second
# (measure 2); each level's coefficient read alone, before the point level
# along l2 is substituted, gives the increment -4/3 or -1/2 along l1
FIBER_INTEGRAL_WEIGHTS = [
    ("l1 = 2*l2 + 1 /\\ l2 >= 1 /\\ l2 <= 6",
     Weight.make(3, LinearTerm.constant(2), {"l1": -2, "l2": -2}), Fraction(1365, 4096)),
    ("l1 = 2*l2 /\\ l2 >= 0",
     Weight.make(4, LinearTerm.constant(0), {"l1": -1, "l2": -2}), Fraction(2)),
]


@pytest.mark.parametrize("lam, weight, value", FIBER_INTEGRAL_WEIGHTS)
def test_a_weight_integral_on_the_fiber_is_measured(lam, weight, value):
    pres = weighted_presentation(CTX2, parse(lam), weight)
    assert mu(pres) == value
    assert value in truncated_measure(pres, {})
    if "<=" in lam:
        assert value == sum(Fraction(2) ** weight.affine().evaluate({"l1": 2 * y + 1, "l2": y})
                            for y in range(1, 7))
    ell, basic, cert = normalize_to_basic(pres)
    assert mu(basic.presentation) == ell * value
    assert find_invalid_step(cert) is None


def _line_fiber(k, c, low, high):
    """The first points, by l2, of l1 = k*l2 + c /\\ low <= l2 (<= high)."""
    top = low + 3 if high is None else min(high, low + 3)
    return [{"l1": k * y + c, "l2": y} for y in range(low, top + 1)]


def test_weights_on_a_line_are_rejected_where_they_leave_the_integers():
    # l1 = k*l2 + c /\ l2 >= low, half of them bounded above: the weight is
    # affine along the line, so it is an integer on the fiber iff it is at
    # the first two points (at the first, when that is all the fiber holds)
    rng = random.Random(32)
    outcomes = Counter()
    for _ in range(100):
        k, c, low = rng.choice((2, 3)), rng.randint(-3, 3), rng.randint(-2, 2)
        high = low + rng.randint(0, 4) if rng.random() < 0.5 else None
        lam = f"l1 = {k}*l2 + {c} /\\ l2 >= {low}" + ("" if high is None else f" /\\ l2 <= {high}")
        weight = Weight.make(rng.choice((2, 3, 4, 6)), LinearTerm.constant(rng.randint(-6, 6)),
                             {"l1": rng.randint(-6, 1), "l2": rng.randint(-6, 1)})
        pres = weighted_presentation(CTX2, parse(lam), weight)
        integral = all(weight.affine().evaluate(point).denominator == 1
                       for point in _line_fiber(k, c, low, high))
        try:
            value = mu(pres)
        except InputError:
            assert not integral, (lam, weight)
            outcomes["InputError"] += 1
            continue
        except DivergesError:
            outcomes["DivergesError"] += 1
            continue
        assert integral, (lam, weight)
        assert value in truncated_measure(pres, {}), (lam, weight)
        outcomes["measured"] += 1
    assert outcomes["InputError"] and outcomes["measured"], outcomes


def test_measure_function_decomposes_each_generator_once(monkeypatch):
    calls = []
    original = measure.to_cells

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, "to_cells", spy)
    pres = _domain_integral_presentation()
    point = BoxCell((DegenerateCoordinate(Fraction(1)),), (), TRUE, None)
    gens = pres.generators + delta_presentation(CTX2, 2).generators + ((Fraction(1), point),)
    measure_function(Presentation(CTX2, pres.param_vars, pres.param_domain, gens))
    assert len(calls) == 2


def test_a_second_comparison_reuses_every_closed_form(monkeypatch):
    # counts the to_cells calls of sum_closed_form, which name the
    # parameters; the zero test's calls on the difference name none
    calls = []
    original = measure.to_cells

    def spy(f, lambda_vars, param_vars):
        if param_vars:
            calls.append(f)
        return original(f, lambda_vars, param_vars)

    monkeypatch.setattr(measure, "to_cells", spy)
    rng = random.Random(1616)
    checked = 0
    while checked < 3:
        pres = random_convergent_presentation(rng, CTX2, max_generators=3)
        if not pres.param_vars:
            continue
        derived = shift_lambda(with_unit_ball(pres)[0], 2)[0]
        coeff, cell = derived.generators[0]
        changed = Presentation(CTX2, pres.param_vars, pres.param_domain,
                               ((coeff + 1, cell),) + derived.generators[1:])
        del calls[:]
        assert bool(decide_equal(pres, derived))
        assert calls
        del calls[:]
        assert not decide_equal(pres, changed)
        assert bool(decide_equal(pres, translate_centers(pres, 1)[0]))
        assert calls == []
        checked += 1


def test_a_divergent_cell_raises_on_every_call_and_is_not_kept():
    bad = weighted_presentation(CTX2, parse("l >= 0"), Weight.constant(0))
    bad = add(unit_presentation(CTX2), bad)
    for _ in range(2):
        with pytest.raises(DivergesError) as err:
            decide_equal(unit_presentation(CTX2), bad)
        assert err.value.generator == 1
    # only the unit cell, which returned, is kept
    assert len(measure._CLOSED_FORMS) == 1


def test_bounded_closed_forms_give_the_unbounded_measures(monkeypatch):
    rng = random.Random(1717)
    presentations = [random_convergent_presentation(rng, rng.choice((CTX2, CTX3)),
                                                    max_generators=3) for _ in range(12)]
    want = [measure_function(pres) for pres in presentations]
    sizes = []
    original = ring.sum_closed_form

    def spy(*args):
        result = original(*args)
        sizes.append(len(measure._CLOSED_FORMS))
        return result

    monkeypatch.setattr(ring, "sum_closed_form", spy)
    # the unbounded pass above filled the table
    monkeypatch.setattr(measure, "_CLOSED_FORMS", {})
    monkeypatch.setattr(measure, "CLOSED_FORMS_BOUND", 4)
    for _ in range(2):
        assert [measure_function(pres) for pres in presentations] == want
    assert max(sizes) == 4


def test_zero_coefficient_generator_decides_not_equal():
    # a split generator whose coefficient is exactly 0: a changed copy from
    # the equality benchmark (p = 2, round 5 at seed 18)
    doc = json.loads((Path(__file__).parent / "data" / "zero_coefficient_pair.json").read_text())
    result = decide_equal(from_document(doc["left"]), from_document(doc["right"]))
    assert result == NotEqual((("s", 2),), Fraction(9363, 28672), Fraction(1365, 4096))


def _disjunctive_domain_presentations():
    domains = [parse("s >= 0 \\/ s <= -3"), parse("s != 4")]
    rng = random.Random(505)
    out = []
    while len(out) < 4:
        ctx = (CTX2, CTX3)[len(out) // 2]
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
        if pres.param_vars:
            domain = simplify(domains[len(out) % 2])
            out.append(Presentation(ctx, pres.param_vars, domain, pres.generators))
    return out


def test_disjunctive_domains_match_oracle_and_certify():
    for pres in _disjunctive_domain_presentations():
        mf = measure_function(pres)
        for s in (-5, -3, 0, 2, 4, 5, 9):
            point = {"s": s}
            if evaluate_qf(pres.param_domain, point):
                bracket = truncated_measure(pres, point, depth=8, window=12)
                assert mf.evaluate(point) in bracket, (to_document(pres), point)
        ell, basic, cert = normalize_to_basic(pres)
        assert verify_certificate(cert)
        assert decide_equal(scalar_mul(ell, pres), basic.presentation)
        coeff, cell = pres.generators[0]
        changed = Presentation(pres.ctx, pres.param_vars, pres.param_domain,
                               ((coeff + 1, cell),) + pres.generators[1:])
        result = decide_equal(pres, changed)
        if not result:
            point = result.witness_dict()
            assert evaluate_qf(pres.param_domain, point)
            assert result.value1 == mu(pres, point) != mu(changed, point) == result.value2


def test_measure_decide_and_normalize_ask_only_atom_conjunctions(sat_queries):
    doc = json.loads((Path(__file__).parent / "data" / "zero_coefficient_pair.json").read_text())
    pairs = [(from_document(doc["left"]), from_document(doc["right"]))]
    pairs += [(pres, scalar_mul(2, pres)) for pres in _disjunctive_domain_presentations()]
    for left, right in pairs:
        measure_function(left)
        decide_equal(left, right)
        normalize_to_basic(left)
    assert sat_queries["atoms_satisfiable"] and not sat_queries["is_satisfiable"]
    assert not sat_queries["qe"]
