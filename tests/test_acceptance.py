"""Acceptance gate: each criterion prints one pass/fail line.

Every check is exact rational arithmetic; the only tolerances are the stated
bracket widths of the brute-force measure oracle.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from padicmeasure import measure
from padicmeasure.measure import BoxCell, Coordinate, PAdicContext, Weight
from padicmeasure.oracle import BudgetExceededError, brute_force_qe, truncated_measure
from padicmeasure.presburger import (
    TRUE,
    LinearTerm,
    conj,
    equivalent_on_box,
    evaluate_qf,
    format_formula,
    parse,
    qe,
)
from padicmeasure.ring import (
    Certificate,
    CertificateStep,
    Presentation,
    add,
    ball_presentation,
    certificate_from_document,
    certificate_to_document,
    decide_equal,
    delta_presentation,
    find_invalid_step,
    measure_function,
    multiply,
    normalize_to_basic,
    presentation,
    raise_level,
    scalar_mul,
    shift_lambda,
    split_first_generator,
    translate_centers,
    verify_certificate,
    weighted_presentation,
    with_unit_ball,
)
from padicmeasure.semilinear import count_parametric, to_cells

from generators import (
    grid_fiber_counts,
    random_convergent_presentation,
    random_finite_family,
    random_formula,
)

PRIMES = (2, 3, 5, 7)


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}")
    assert not failures, f"criterion {number} ({name}): {failures[:3]}"


# --- presentations under test, reproducible for the oracle criterion --------


def presentations_criterion_1():
    for p in PRIMES:
        ctx = PAdicContext(p)
        for n in (1, 2, 3, 4):
            yield p, n, delta_presentation(ctx, n)


def presentations_criterion_2():
    for p in PRIMES:
        ctx = PAdicContext(p)
        for c in range(-5, 6):
            yield p, c, ball_presentation(ctx, c)


def _random_level_lambda(rng):
    n = rng.randint(1, 3)
    lams = tuple(f"l{i + 1}" for i in range(n))
    atoms = []
    for i, name in enumerate(lams):
        var = LinearTerm.variable(name)
        lower = rng.randint(-2, 2)
        from padicmeasure.presburger import divides, geq0

        atoms.append(geq0(var - lower))
        if rng.random() < 0.5:
            atoms.append(geq0(LinearTerm.constant(lower + rng.randint(0, 4)) - var))
        if rng.random() < 0.3:
            m = rng.randint(2, 3)
            atoms.append(divides(m, var - rng.randint(0, m - 1)))
    return lams, conj(atoms)


def _leveled_cell(ctx, lams, lam_formula, level_first: int):
    coords = tuple(
        Coordinate(Fraction(0), level_first if i == 0 else 1, 1)
        for i in range(len(lams))
    )
    return BoxCell(coords, lams, lam_formula, None)


def presentations_criterion_3():
    rng = random.Random(303)
    for case in range(20):
        p = rng.choice((2, 3, 5))
        ctx = PAdicContext(p)
        lams, lam_formula = _random_level_lambda(rng)
        base = Presentation(ctx, (), parse("true"),
                            ((Fraction(1), _leveled_cell(ctx, lams, lam_formula, 1)),))
        leveled = {
            level: Presentation(ctx, (), parse("true"),
                                ((Fraction(1), _leveled_cell(ctx, lams, lam_formula, level)),))
            for level in (1, 2, 3)
        }
        yield p, base, leveled


def presentations_criterion_4():
    rng = random.Random(404)
    for case in range(20):
        p = rng.choice((2, 3))
        ctx = PAdicContext(p)
        left = _finite_weighted(rng, ctx)
        right = _finite_weighted(rng, ctx)
        yield ctx, left, right


def _finite_weighted(rng, ctx):
    while True:
        f, lams, params, domain = random_finite_family(rng)
        if params == ["s"]:
            break
    b = {v: rng.randint(-2, 2) for v in lams}
    c = LinearTerm.constant(rng.randint(-2, 2))
    return weighted_presentation(ctx, f, Weight.make(1, c, b), params, domain)


def presentations_criterion_5():
    d3 = delta_presentation(PAdicContext(2), 3)
    yield Fraction(3, 7), add(add(d3, d3), d3)
    yield Fraction(1, 2), delta_presentation(PAdicContext(3), 1)
    rng = random.Random(505)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        ctx = PAdicContext(p)
        c = rng.randint(-4, 4)
        n = rng.randint(1, 4)
        combo = multiply(ball_presentation(ctx, -c), delta_presentation(ctx, n))
        yield Fraction(p) ** c / (p**n - 1), combo


def presentations_criterion_8():
    rng = random.Random(808)
    for _ in range(50):
        ctx = PAdicContext(rng.choice((2, 3, 5)))
        yield random_convergent_presentation(rng, ctx)


CHAIN_REWRITES = (
    lambda rng, pres: with_unit_ball(pres),
    lambda rng, pres: translate_centers(pres, Fraction(rng.randint(-3, 3))),
    lambda rng, pres: raise_level(pres, rng.randint(2, 3)),
    lambda rng, pres: shift_lambda(pres, rng.randint(1, 3)),
)


def presentations_criterion_9():
    rng = random.Random(909)
    for case in range(50):
        p = rng.choice((2, 3))
        ctx = PAdicContext(p)
        if rng.random() < 0.5:
            seed = delta_presentation(ctx, rng.randint(1, 2))
        else:
            seed = ball_presentation(ctx, rng.randint(-2, 2))
        current = seed
        for _ in range(rng.randint(2, 4)):
            roll = rng.randrange(len(CHAIN_REWRITES) + 1)
            if roll == len(CHAIN_REWRITES):
                if current.generators[0][1].lambda_vars:
                    var = current.generators[0][1].lambda_vars[0]
                    current, _ = split_first_generator(
                        current, parse(f"2 | {var}"))
                continue
            current, _ = CHAIN_REWRITES[roll](rng, current)
        yield rng, ctx, seed, current


# --- the criteria ------------------------------------------------------------


def test_criterion_01_delta_identity():
    started = time.time()
    failures = []
    for p, n, pres in presentations_criterion_1():
        value = measure_function(pres).evaluate({})
        if value != Fraction(1, p**n - 1):
            failures.append((p, n, value))
    elapsed = time.time() - started
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(1, f"(p^n - 1) * measure(P(Delta_n)) = 1, runtime {elapsed:.2f}s", failures)


def test_criterion_02_ball_classes():
    failures = []
    for p, c, pres in presentations_criterion_2():
        value = measure_function(pres).evaluate({})
        if value != Fraction(p) ** (-c):
            failures.append((p, c, value))
    _report(2, "measure(p^c Zp) = p^(-c) for |c| <= 5, all four primes", failures)


def test_criterion_03_level_identity():
    failures = []
    for p, base, leveled in presentations_criterion_3():
        for level, pres in leveled.items():
            scale = Fraction(p) ** (level - 1)
            verdict = decide_equal(scalar_mul(scale, pres), base)
            if not verdict:
                failures.append((p, level, verdict))
    _report(3, "p^(l-1) * measure(P_l(Lambda)) = measure(P(Lambda))", failures)


def test_criterion_04_fiber_products():
    rng = random.Random(44)
    failures = []
    for ctx, left, right in presentations_criterion_4():
        prod = multiply(left, right)
        mf_left = measure_function(left)
        mf_right = measure_function(right)
        mf_prod = measure_function(prod)
        for _ in range(20):
            point = {"s": rng.randint(0, 30)}
            want = mf_left.evaluate(point) * mf_right.evaluate(point)
            got = mf_prod.evaluate(point)
            if want != got:
                failures.append((point, want, got))
    _report(4, "fiber products multiply measures at 20 sampled points, 20 pairs", failures)


def test_criterion_05_corollary_range():
    failures = []
    for want, pres in presentations_criterion_5():
        got = measure_function(pres).evaluate({})
        if got != want:
            failures.append((want, got))
    _report(5, "constructed presentations hit 3/7, 1/2, and p^c/(p^n - 1)", failures)


def test_criterion_06_qe_equivalence():
    started = time.time()
    rng = random.Random(606)
    failures = []
    checked = 0
    while checked < 200:
        formula = random_formula(rng, max_quantifiers=3, max_free=3, coeff_bound=5)
        try:
            table = brute_force_qe(formula, 15)
        except BudgetExceededError:
            continue
        if not equivalent_on_box(qe(formula), table, 15):
            failures.append(formula)
        checked += 1
    elapsed = time.time() - started
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(6, f"200 random formulas agree with the brute table, {elapsed:.1f}s", failures)


def test_criterion_07_parametric_counting():
    rng = random.Random(707)
    failures = []
    for case in range(50):
        formula, lams, params, domain = random_finite_family(rng)
        cells = to_cells(formula, lams, params)
        counts = count_parametric(cells, domain, params)
        # counted from the formula's atoms, sharing no code with the engine
        grid = grid_fiber_counts(formula, lams, params, 40)
        if len(params) == 1:
            points = [{params[0]: s} for s in range(41)]
        else:
            points = [{params[0]: s, params[1]: t} for s in range(41) for t in range(41)]
        for point in points:
            want = grid[tuple(point.values())]
            got = counts.evaluate(point)
            if want != got:
                failures.append((case, point, want, got))
                break
    _report(7, "count_parametric matches a brute-force count on [0,40]^k, 50 families",
            failures)


# sha256 of the count verb's printout, `count[ guard ; poly ]` lines, of the
# first 800 random_finite_family families of random.Random(707), the 50 of
# criterion 07 first; an intended change to guards or counts updates it
COUNT_PRINTOUTS_SHA256 = (
    "d08fe0358c679a6a3ba321a985b6d32f38b0bdc8504b1883b412ead88c314cc0")


def test_count_printouts_match_their_digest():
    digest = hashlib.sha256()
    rng = random.Random(707)
    lines = 0
    for _ in range(800):
        formula, lams, params, domain = random_finite_family(rng)
        counts = count_parametric(to_cells(formula, lams, params), domain, params)
        for guard, poly in counts.pieces:
            digest.update(f"count[ {format_formula(conj(guard))} ; {poly} ]\n".encode())
            lines += 1
    assert lines == 1689
    assert digest.hexdigest() == COUNT_PRINTOUTS_SHA256


def test_criterion_08_normalization():
    rng = random.Random(88)
    failures = []
    for index, pres in enumerate(presentations_criterion_8()):
        ell, basic, cert = normalize_to_basic(pres)
        if not decide_equal(scalar_mul(ell, pres), basic.presentation):
            failures.append((index, "not equal"))
            continue
        if not verify_certificate(cert):
            failures.append((index, "certificate"))
            continue
        if len(basic.fiber_counts) != len(basic.presentation.generators):
            failures.append((index, "missing fiber certificates"))
            continue
        for counts in basic.fiber_counts:
            point = {v: rng.randint(0, 10) for v in pres.param_vars}
            value = counts.evaluate(point)
            if value != int(value) or value < 0:
                failures.append((index, "bad count", point, value))
    _report(8, "normalize_to_basic: equality, certificates, finite fibers (50 runs)", failures)


# sha256 of the criterion-08 certificate documents, each json.dumps text
# followed by a newline; an intended change to the written certificates
# updates it
CRITERION_8_CERTIFICATES_SHA256 = (
    "1f75c27920f290e17adb42d0c379630d2f00e7bc16d65e54430a610a93e60677")


def test_criterion_08_certificates_match_their_digest():
    digest = hashlib.sha256()
    for pres in presentations_criterion_8():
        cert = normalize_to_basic(pres)[2]
        text = json.dumps(certificate_to_document(cert))
        digest.update(text.encode() + b"\n")
        assert certificate_from_document(json.loads(text)) == cert
    assert digest.hexdigest() == CRITERION_8_CERTIFICATES_SHA256


# sha256 of repr(measure_function(P).exp_poly) and repr(decide_equal(P,
# 2·P)), each followed by a newline, over the first 100 presentations of
# the equivalence set (random.Random(2026), p drawn from {2, 3}, numbers 2,
# 5, 8, ... squared), each over TRUE and, with s, over four more domains;
# an intended change to measure functions or verdicts updates it
MEASURE_FUNCTIONS_SHA256 = (
    "dc44990f293a0990f2485149d8e4de53f520e35a0358decd760722c7c8e1edf4")
DIGEST_DOMAINS = ("s >= 0", "s >= 0 \\/ s <= -3", "2 | s \\/ s >= 5", "s != 4")


def test_measure_functions_match_their_digest():
    digest = hashlib.sha256()
    rng = random.Random(2026)
    runs = 0
    for number in range(100):
        ctx = PAdicContext(rng.choice((2, 3)))
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
        if number % 3 == 2:
            pres = multiply(pres, pres)
        domains = [TRUE] + ([parse(d) for d in DIGEST_DOMAINS] if pres.param_vars else [])
        for domain in domains:
            P = presentation(ctx, pres.generators, pres.param_vars, domain)
            digest.update(repr(measure_function(P).exp_poly).encode() + b"\n")
            digest.update(repr(decide_equal(P, scalar_mul(2, P))).encode() + b"\n")
            runs += 1
    assert runs == 364
    assert digest.hexdigest() == MEASURE_FUNCTIONS_SHA256


def _tampered_at_half(cert):
    """cert with step k // 2 of its k steps tampered: the first coefficient
    of that step's after is doubled, in the next step's before too, so the
    steps still chain."""
    steps = list(cert.steps)
    if not steps:
        return cert
    j = len(steps) // 2
    after = steps[j].after
    gens = after.generators
    if gens:
        gens = ((2 * gens[0][0], gens[0][1]),) + gens[1:]
    bad = Presentation(after.ctx, after.param_vars, after.param_domain, gens)
    steps[j] = CertificateStep(steps[j].rule, steps[j].note, steps[j].before, bad)
    if j + 1 < len(steps):
        steps[j + 1] = CertificateStep(steps[j + 1].rule, steps[j + 1].note, bad,
                                       steps[j + 1].after)
    return Certificate(tuple(steps))


# sha256 of repr(decide_equal(P, P with its first coefficient doubled)),
# repr(decide_equal(ell·P, basic)) and repr(find_invalid_step) of P's
# certificate with step k // 2 tampered, each followed by a newline, over
# the first 100 presentations of random.Random(2026) (p drawn from {2, 3},
# numbers 2, 5, 8, ... squared); an intended change to verdicts or replay
# updates it
RING_VERDICTS_SHA256 = (
    "6197630215d2fde8135738dbc802e0863fb3b9ff17a39bc22cf71e342fecfae6")


def test_ring_verdicts_match_their_digest():
    digest = hashlib.sha256()
    rng = random.Random(2026)
    found = []
    for number in range(100):
        ctx = PAdicContext(rng.choice((2, 3)))
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
        if number % 3 == 2:
            pres = multiply(pres, pres)
        coeff, cell = pres.generators[0]
        doubled = Presentation(ctx, pres.param_vars, pres.param_domain,
                               ((2 * coeff, cell),) + pres.generators[1:])
        ell, basic, cert = normalize_to_basic(pres)
        found.append(find_invalid_step(_tampered_at_half(cert)))
        for line in (repr(decide_equal(pres, doubled)),
                     repr(decide_equal(scalar_mul(ell, pres), basic.presentation)),
                     repr(found[-1])):
            digest.update(line.encode() + b"\n")
    assert found.count(None) == 1
    assert digest.hexdigest() == RING_VERDICTS_SHA256


def _rewrite_pairs(rng, count):
    """count pairs (P, R) and (P, R with one coefficient changed), R a
    rewrite of P by translate_centers, split_first_generator or shift_lambda,
    drawn as the equality benchmark draws its rewrite pairs."""
    for _ in range(count):
        ctx = PAdicContext(rng.choice((2, 3)))
        pres = random_convergent_presentation(rng, ctx, max_generators=3)
        rule = rng.choice(("translate", "split", "shift"))
        if rule == "translate":
            derived, _ = translate_centers(pres, Fraction(rng.randint(-3, 3)))
        elif rule == "split":
            lam = pres.generators[0][1].lambda_vars[0]
            derived, _ = split_first_generator(pres, parse(f"2 | {lam}"))
        else:
            derived, _ = shift_lambda(pres, rng.randint(1, 3))
        gens = list(derived.generators)
        index = rng.randrange(len(gens))
        coeff, cell = gens[index]
        delta = -coeff
        while coeff + delta == 0:
            delta = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))
        gens[index] = (coeff + delta, cell)
        changed = Presentation(ctx, derived.param_vars, derived.param_domain, tuple(gens))
        yield pres, derived
        yield pres, changed


# sha256 of the verdict kinds of decide_equal on the 160 pairs of
# _rewrite_pairs(random.Random(2037), 80), one class name and a newline
# each; witnesses are checked, not pinned, so that the regions a NotEqual
# is refined by may change
REWRITE_PAIR_VERDICTS_SHA256 = (
    "29eed7397f24e36272af3c377a3d6775511fdca4c42a7fe69c9520ef785cbddd")


def test_rewrite_pair_verdicts_match_their_digest():
    digest = hashlib.sha256()
    kinds = []
    for left, right in _rewrite_pairs(random.Random(2037), 80):
        verdict = decide_equal(left, right)
        kinds.append(type(verdict).__name__)
        digest.update(kinds[-1].encode() + b"\n")
        if verdict:
            continue
        point = dict(verdict.witness)
        assert evaluate_qf(left.param_domain, point)
        assert verdict.value1 == measure_function(left).evaluate(point)
        assert verdict.value2 == measure_function(right).evaluate(point)
        assert verdict.value1 != verdict.value2
    assert kinds[::2].count("Equal") == 80 and "NotEqual" in kinds[1::2]
    assert digest.hexdigest() == REWRITE_PAIR_VERDICTS_SHA256


def test_criterion_09_equality_decider_desk_scale():
    failures = []
    for rng, ctx, seed, derived in presentations_criterion_9():
        verdict = decide_equal(seed, derived)
        if not verdict:
            failures.append(("chain not equal", verdict))
            continue
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))
        flipped = None
        for index, (coeff, cell) in enumerate(derived.generators):
            gens = list(derived.generators)
            gens[index] = (coeff + delta, cell)
            candidate = Presentation(ctx, derived.param_vars, derived.param_domain,
                                     tuple(gens))
            outcome = decide_equal(seed, candidate)
            if not outcome:
                flipped = outcome
                break
        if flipped is None:
            failures.append(("no perturbation detected", delta))
            continue
        if flipped.value1 == flipped.value2:
            failures.append(("witness values equal", flipped))
    _report(9, "rule chains stay Equal; coefficient perturbations flip with witness", failures)


def presentations_criterion_10():
    registry = []
    for _, _, pres in presentations_criterion_1():
        registry.append(pres)
    for _, _, pres in presentations_criterion_2():
        registry.append(pres)
    for _, base, leveled in presentations_criterion_3():
        registry.append(base)
        registry.extend(leveled.values())
    for _, left, right in presentations_criterion_4():
        registry.extend((left, right))
    for _, pres in presentations_criterion_5():
        registry.append(pres)
    for pres in presentations_criterion_8():
        registry.append(pres)
    for _, _, seed, derived in presentations_criterion_9():
        registry.extend((seed, derived))
    return registry


def test_criterion_10_oracle_containment():
    rng = random.Random(1010)
    failures = []
    registry = presentations_criterion_10()
    for index, pres in enumerate(registry):
        mf = measure_function(pres)
        n = max((len(c.lambda_vars) for _, c in pres.generators), default=0)
        if pres.param_vars:
            points = [{v: rng.randint(0, 12) for v in pres.param_vars} for _ in range(5)]
        else:
            points = [{}]
        for point in points:
            bracket = truncated_measure(pres, point, depth=8, window=12)
            value = mf.evaluate(point)
            if value not in bracket:
                failures.append((index, point, "containment"))
            if bracket.width > Fraction(pres.ctx.p) ** (n - 8):
                failures.append((index, point, "width", bracket.width))
    _report(10, f"depth-8 brackets contain exact values ({len(registry)} presentations)",
            failures)


def test_oracle_brackets_without_cell_decomposition(monkeypatch):
    # the oracle stays independent of the engine: it brackets every
    # criterion-10 presentation with to_cells and triangulate unavailable
    rng = random.Random(1011)
    cases = []
    for pres in presentations_criterion_10():
        point = {v: rng.randint(0, 12) for v in pres.param_vars}
        cases.append((pres, point, measure_function(pres).evaluate(point)))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle decomposed a cell")

    # building the cases filled the table of closed forms; emptied, a call
    # into sum_closed_form must decompose its cells and so meets the guard
    monkeypatch.setattr(measure, "_CLOSED_FORMS", {})
    for name, module in list(sys.modules.items()):
        for attr in ("to_cells", "triangulate"):
            if name.startswith("padicmeasure") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    failures = [
        (index, point)
        for index, (pres, point, value) in enumerate(cases)
        if value not in truncated_measure(pres, point, depth=8, window=12)
    ]
    assert not failures, failures[:3]
