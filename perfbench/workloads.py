"""The four workloads: seeded inputs, the operations the worker times, and the
checks that hold every output to a computation made apart from the package.

A run is a fixed number of rounds, set by `--seconds` so that a run takes
about that long on the reference machine (`count` and `certify` are always
one round of a fixed population); it does not stop on the clock, so two
commits always do the same work, and a faster commit does not pay for its
speed with more cache entries and a higher peak memory.  Round 0 is built
during set-up, later rounds between operations, untimed.

Each workload draws the *shape* of its inputs (presentations, cells,
formulas, rewrite chains) from the generators at fixed seeds, and lets the
workload seed redraw what the engine's cost does not depend on: generator
coefficients, centers, angular components, shifts of counted variables by
multiples of 12, which coefficient is changed and by how much, the order of
operations and the check points.  The per-input cost of this package spans
four orders of magnitude, so shapes drawn from the workload seed would make
the figures a lottery over which slow inputs a seed happens to draw.

Checks run after the timed phase, because some of them call the package and
would otherwise warm its caches for later operations.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from padicmeasure import (
    BoxCell,
    Coordinate,
    PAdicContext,
    Presentation,
    ball_presentation,
    certificate_from_document,
    certificate_to_document,
    count_parametric,
    decide_equal,
    delta_presentation,
    evaluate_qf,
    format_formula,
    from_document,
    measure_function,
    multiply,
    normalize_to_basic,
    parse,
    scalar_mul,
    to_cells,
    to_document,
    truncated_measure,
    verify_certificate,
)
from padicmeasure.ring import (
    find_invalid_step,
    raise_level,
    shift_lambda,
    split_first_generator,
    translate_centers,
    with_unit_ball,
)

from generators import random_convergent_presentation, random_finite_family, random_unit

import formulas


@dataclass
class Op:
    """One timed call.  `prepare` runs untimed just before `run`; `check`
    runs after the timed phase with the output of `run`."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, "Checker"], None]
    prepare: Callable[[], None] | None = None
    known_fault: bool = False


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    return f"{value!r} (perturbed)"


class Checker:
    """Collects the mismatches of one operation.  With `wrong_expected` the
    first expected value it is given is perturbed, to show that the checks
    can fail."""

    def __init__(self, wrong_expected: bool = False) -> None:
        self.wrong_expected = wrong_expected
        self.problems: list[str] = []

    def expect(self, what: str, expected, got) -> bool:
        if self.wrong_expected:
            expected = _perturb(expected)
            self.wrong_expected = False
        if expected != got:
            self.problems.append(f"{what}: expected {expected!r}, got {got!r}")
            return False
        return True


def _sample_points(rng: random.Random, params, count: int, high: int = 12):
    if not params:
        return [{}]
    return [{v: rng.randint(0, high) for v in params} for _ in range(count)]


def _interval_product(a, b) -> tuple[Fraction, Fraction]:
    ends = [x * y for x in (a.lower, a.upper) for y in (b.lower, b.upper)]
    return min(ends), max(ends)


def _bracket(pres: Presentation, point):
    return truncated_measure(pres, point, depth=8, window=12)


def _changed(pres: Presentation, index: int, rng: random.Random):
    """`pres` with generator `index`'s coefficient changed by a random delta,
    and the delta.  The new coefficient is never 0: `decide_equal` on a
    generator whose coefficient is exactly 0 can take 300 times as long
    (34 s against 0.1 s), so a seed that happened to cancel a coefficient
    would decide a run's figures."""
    gens = list(pres.generators)
    coeff, cell = gens[index]
    delta = -coeff
    while coeff + delta == 0:
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))
    gens[index] = (coeff + delta, cell)
    return Presentation(pres.ctx, pres.param_vars, pres.param_domain, tuple(gens)), delta


def _generator(pres: Presentation, index: int) -> Presentation:
    return Presentation(pres.ctx, pres.param_vars, pres.param_domain,
                        ((Fraction(1), pres.generators[index][1]),))


def redraw(pres: Presentation, rng: random.Random) -> Presentation:
    """The same cells, formulas and weights with new coefficients, centers
    and angular components.  Measures never depend on centers or angular
    components, and coefficients only scale polynomials, so the work the
    engine does is the same."""
    p = pres.ctx.p
    gens = []
    for _, cell in pres.generators:
        coeff = Fraction(rng.randint(1, 3), rng.choice((1, 2))) * rng.choice((1, 1, -1))
        coords = tuple(
            Coordinate(Fraction(rng.randint(-2, 2)), c.level, random_unit(rng, p, c.level))
            if isinstance(c, Coordinate) else c
            for c in cell.coords)
        gens.append((coeff, BoxCell(coords, cell.lambda_vars, cell.lambda_formula,
                                    cell.weight)))
    return Presentation(pres.ctx, pres.param_vars, pres.param_domain, tuple(gens))


class Workload:
    name = ""
    tail_percentile = 50
    min_rounds = 1
    rounds_per_second = 1.0

    def __init__(self, seed: int, small: bool) -> None:
        self.seed = seed
        self.small = small
        self._first = self.build_round(0)

    def rounds(self, seconds: float) -> int:
        if self.small:
            return 1
        return max(self.min_rounds, math.ceil(seconds * self.rounds_per_second))

    def round(self, index: int) -> list[Op]:
        return self._first if index == 0 else self.build_round(index)

    def shape_rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}-shape:{index}")

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def build_round(self, index: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# count


class CountWorkload(Workload):
    """`to_cells` then `count_parametric` on a fixed population of families
    from `random_finite_family`, each shifted by a seeded multiple of 12 per
    counted variable.

    The population is the generator's first 400 families at seed 707, the
    first 50 of which are acceptance criterion 07.  Family 4 alone takes
    about 30 s; the next family that slow, number 446, would put a run past
    its time budget.  A shift by a multiple of 12 keeps every count and every
    divisibility residue (all moduli divide 12), so each seed asks the same
    questions under new constants and the slow families stay in every run.
    """

    name = "count"
    tail_percentile = 95
    rounds_per_second = 0.0  # one round: its slowest family alone takes about 30 s
    POPULATION_SEED, POPULATION = 707, 400
    SMALL_SEED, SMALL_POPULATION = 100, 12

    def __init__(self, seed: int, small: bool) -> None:
        rng = random.Random(self.SMALL_SEED if small else self.POPULATION_SEED)
        self.families = []
        for _ in range(self.SMALL_POPULATION if small else self.POPULATION):
            formula, lams, params, _ = random_finite_family(rng)
            atoms = formulas.parse_conjunction(format_formula(formula))
            domain = parse(" /\\ ".join(f"{v} >= 0" for v in params))
            self.families.append((atoms, lams, params, domain))
        super().__init__(seed, small)

    def build_round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for i in rng.sample(range(len(self.families)), len(self.families)):
            atoms, lams, params, domain = self.families[i]
            shifted = formulas.shift(atoms, {v: 12 * rng.randint(-3, 3) for v in lams})
            formula = parse(formulas.format_conjunction(shifted))
            points = _sample_points(rng, params, 3)

            def run(formula=formula, lams=lams, params=params, domain=domain):
                return count_parametric(to_cells(formula, lams, params), domain, params)

            def check(out, chk, shifted=shifted, lams=lams, points=points):
                for point in points:
                    chk.expect(f"count at {point}",
                               formulas.brute_force_count(shifted, lams, point),
                               out.evaluate(point))

            ops.append(Op("count", run, check))
        return ops


# ---------------------------------------------------------------------------
# equality


def _rewrite(rng: random.Random, pres: Presentation) -> Presentation:
    """One to two certified rewrites; the unit-ball product at most once."""
    rules = ["unit_ball", "translate", "level", "shift", "split"]
    for _ in range(rng.randint(1, 2)):
        rule = rng.choice(rules)
        if rule == "unit_ball":
            rules.remove("unit_ball")
            pres, _ = with_unit_ball(pres)
        elif rule == "translate":
            pres, _ = translate_centers(pres, Fraction(rng.randint(-3, 3)))
        elif rule == "level":
            pres, _ = raise_level(pres, rng.randint(2, 3))
        elif rule == "shift":
            pres, _ = shift_lambda(pres, rng.randint(1, 3))
        else:
            cell = pres.generators[0][1]
            if cell.lambda_vars:
                pres, _ = split_first_generator(pres, parse(f"2 | {cell.lambda_vars[0]}"))
    return pres


def _check_not_equal(out, chk: Checker, left_brackets, right_brackets) -> None:
    """A NotEqual verdict names a witness point whose two values differ and
    each lie in the oracle bracket of its own side."""
    if not chk.expect("verdict", "NotEqual", type(out).__name__):
        return
    point = out.witness_dict()
    chk.expect("witness values differ", True, out.value1 != out.value2)
    lo, hi = left_brackets(point)
    chk.expect(f"left value in [{lo}, {hi}]", True, lo <= out.value1 <= hi)
    lo, hi = right_brackets(point)
    chk.expect(f"right value in [{lo}, {hi}]", True, lo <= out.value2 <= hi)


def _check_changed(out, chk: Checker, left_brackets, right_brackets,
                   changed_brackets, points) -> None:
    """A changed copy is NotEqual with a checked witness, unless the changed
    generator has measure zero, which the oracle must then confirm."""
    if out:
        for point in points:
            lo, hi = changed_brackets(point)
            chk.expect(f"changed generator has measure 0 at {point}", True, lo <= 0 <= hi)
        return
    _check_not_equal(out, chk, left_brackets, right_brackets)


def _brackets_of(pres: Presentation):
    def brackets(point):
        b = _bracket(pres, point)
        return b.lower, b.upper
    return brackets


def _product_brackets(a: Presentation, b: Presentation):
    def brackets(point):
        return _interval_product(_bracket(a, point), _bracket(b, point))
    return brackets


class EqualityWorkload(Workload):
    """`decide_equal` on rewrite pairs, fiber-product pairs and a delta-ball
    product pair, each followed by a copy with one coefficient changed."""

    name = "equality"
    tail_percentile = 95
    min_rounds = 12  # 216 operations, so that p95 has ten beyond it
    rounds_per_second = 1.5
    REWRITES, PRODUCTS = 6, 2

    def build_round(self, index: int) -> list[Op]:
        shape, rng = self.shape_rng(index), self.rng(index)
        rewrites, products = (2, 1) if self.small else (self.REWRITES, self.PRODUCTS)
        pairs = [self._rewrite_pair(shape, rng) for _ in range(rewrites)]
        pairs += [self._product_pair(shape, rng) for _ in range(products)]
        pairs.append(self._delta_ball_pair(shape, rng))
        rng.shuffle(pairs)
        return [op for pair in pairs for op in pair]

    def _rewrite_pair(self, shape: random.Random, rng: random.Random) -> list[Op]:
        ctx = PAdicContext(shape.choice((2, 3)))
        pres = redraw(random_convergent_presentation(shape, ctx, max_generators=3), rng)
        derived = _rewrite(shape, pres)
        index = rng.randrange(len(derived.generators))
        changed, _ = _changed(derived, index, rng)
        points = _sample_points(rng, pres.param_vars, 3)

        def check_equal(out, chk):
            chk.expect("verdict", "Equal", type(out).__name__)

        def check_changed(out, chk):
            _check_changed(out, chk, _brackets_of(pres), _brackets_of(changed),
                           _brackets_of(_generator(derived, index)), points)

        return [Op("equal", lambda: decide_equal(pres, derived), check_equal),
                Op("changed", lambda: decide_equal(pres, changed), check_changed)]

    def _product_pair(self, shape: random.Random, rng: random.Random) -> list[Op]:
        ctx = PAdicContext(shape.choice((2, 3)))
        a = random_convergent_presentation(shape, ctx, max_generators=2)
        b = random_convergent_presentation(shape, ctx, max_generators=2)
        while b.param_vars != a.param_vars:
            b = random_convergent_presentation(shape, ctx, max_generators=2)
        a, b = redraw(a, rng), redraw(b, rng)
        left, right = multiply(a, b), multiply(b, a)
        index = rng.randrange(len(a.generators))
        a_changed, _ = _changed(a, index, rng)
        points = _sample_points(rng, a.param_vars, 3)

        def check_equal(out, chk):
            chk.expect("verdict", "Equal", type(out).__name__)
            mf_a, mf_b, mf_ab = measure_function(a), measure_function(b), measure_function(left)
            for point in points:
                chk.expect(f"product measure at {point}",
                           mf_a.evaluate(point) * mf_b.evaluate(point),
                           mf_ab.evaluate(point))

        def check_changed(out, chk):
            _check_changed(out, chk, _product_brackets(a_changed, b), _product_brackets(b, a),
                           _product_brackets(_generator(a, index), b), points)

        return [Op("equal", lambda: decide_equal(left, right), check_equal),
                Op("changed", lambda: decide_equal(multiply(a_changed, b), right),
                   check_changed)]

    def _delta_ball_pair(self, shape: random.Random, rng: random.Random) -> list[Op]:
        p = shape.choice((2, 3, 5))
        ctx = PAdicContext(p)
        c, n = rng.randint(-2, 2), shape.randint(1, 2)
        ball, delta = ball_presentation(ctx, -c), delta_presentation(ctx, n)
        left, right = multiply(ball, delta), multiply(delta, ball)
        changed, step = _changed(left, 0, rng)
        exact = Fraction(p) ** c / (p**n - 1)
        # generator 0 of the product is one of the p - 1 angular classes of
        # the ball times the diagonal, so its measure is exact / (p - 1)
        exact_changed = exact + step * exact / (p - 1)

        def check_equal(out, chk):
            chk.expect("verdict", "Equal", type(out).__name__)
            chk.expect(f"measure of Delta_{n}", Fraction(1, p**n - 1),
                       measure_function(delta).evaluate({}))
            chk.expect(f"measure of p^{-c} Zp", Fraction(p) ** c,
                       measure_function(ball).evaluate({}))
            chk.expect("measure of the product", exact, measure_function(left).evaluate({}))

        def check_changed(out, chk):
            if chk.expect("verdict", "NotEqual", type(out).__name__):
                chk.expect("changed value", exact_changed, out.value1)
                chk.expect("unchanged value", exact, out.value2)
            _check_not_equal(out, chk, _brackets_of(changed), _brackets_of(right))

        return [Op("equal", lambda: decide_equal(left, right), check_equal),
                Op("changed", lambda: decide_equal(changed, right), check_changed)]


# ---------------------------------------------------------------------------
# certify

# A generator of measure 1/(p - 1) at every parameter point: added to one
# step's `after`, it breaks exactly that step.
_TAMPER_GENERATOR = {
    "coeff": "1",
    "dims": 1,
    "coords": [{"center": "0", "level": 1, "ac": 1}],
    "lambda_formula": "l1 >= 0",
    "weight": None,
}


class CertifyWorkload(Workload):
    """Per presentation: `normalize_to_basic` and serialize the certificate;
    read it back and replay it with `verify_certificate`; replay a copy with
    one tampered step with `find_invalid_step`.

    The presentations are the 50 of acceptance criterion 08 (seed 808), in
    one round.  Their costs are as uneven as the count families': further
    draws hold one whose replay alone takes 20 s.
    """

    name = "certify"
    tail_percentile = 90
    rounds_per_second = 0.0  # one round of 150 operations, about 10 s
    POPULATION_SEED, POPULATION, SMALL_POPULATION = 808, 50, 2

    def __init__(self, seed: int, small: bool) -> None:
        self.cert_bytes = 0
        shape = random.Random(self.POPULATION_SEED)
        self.population = []
        for _ in range(self.SMALL_POPULATION if small else self.POPULATION):
            ctx = PAdicContext(shape.choice((2, 3, 5)))
            self.population.append(random_convergent_presentation(shape, ctx))
        super().__init__(seed, small)

    def build_round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        chains = []
        for i, pres in enumerate(self.population):
            pres = redraw(pres, rng)
            # the tampered step is part of the shape: replay stops there, so
            # its position sets the cost of the tampered replay
            pick = random.Random(f"{self.name}-tamper:{i}").random()
            chains.append(self._chain(pres, pick, _sample_points(rng, pres.param_vars, 3)))
        rng.shuffle(chains)
        return [op for chain in chains for op in chain]

    def _chain(self, pres: Presentation, pick: float, points) -> list[Op]:
        state: dict = {}

        def normalize():
            ell, basic, cert = normalize_to_basic(pres)
            text = json.dumps(certificate_to_document(cert))
            state["text"] = text
            self.cert_bytes += len(text)
            return ell, basic

        def check_normalize(out, chk):
            ell, basic = out
            chk.expect("ell is a positive integer", True, isinstance(ell, int) and ell > 0)
            verdict = decide_equal(scalar_mul(ell, pres), basic.presentation)
            chk.expect("ell * P against the basic presentation", "Equal",
                       type(verdict).__name__)
            chk.expect("one fiber count per generator", len(basic.presentation.generators),
                       len(basic.fiber_counts))
            for counts in basic.fiber_counts:
                for point in points:
                    value = counts.evaluate(point)
                    chk.expect(f"fiber count at {point} is a natural number", True,
                               value >= 0 and value == int(value))

        def replay():
            return verify_certificate(certificate_from_document(json.loads(state["text"])))

        def check_replay(out, chk):
            chk.expect("fresh certificate replays", True, out)

        def tamper():
            doc = json.loads(state["text"])
            steps = doc["steps"]
            state["k"] = int(pick * len(steps))
            steps[state["k"]]["after"]["generators"].append(dict(_TAMPER_GENERATOR))
            state["tampered"] = json.dumps(doc)

        def replay_tampered():
            return find_invalid_step(certificate_from_document(json.loads(state["tampered"])))

        def check_tampered(out, chk):
            chk.expect("first invalid step", state["k"], out)

        return [Op("normalize", normalize, check_normalize),
                Op("replay", replay, check_replay),
                Op("tamper", replay_tampered, check_tampered, prepare=tamper)]


# ---------------------------------------------------------------------------
# cli

CLI_MAIN = ("import sys; sys.argv[0] = 'padic-measure'; "
            "from padicmeasure.cli import main; main()")


def _parse_bracket(text: str) -> tuple[Fraction, Fraction]:
    inner = text.split("[", 1)[1].split("]", 1)[0]
    lo, hi = inner.split(",")
    return Fraction(lo.strip()), Fraction(hi.strip())


class CliWorkload(Workload):
    """One `padic-measure` child process per operation, one at a time, on
    documents written during set-up; every round runs the seven verbs and the
    known-faulty `[]` document."""

    name = "cli"
    tail_percentile = 75
    min_rounds = 6  # 42 completed operations, so that p75 has ten beyond it
    rounds_per_second = 0.5

    def __init__(self, seed: int, small: bool, workdir: str, src: str) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        os.makedirs(workdir, exist_ok=True)
        shape, rng = random.Random(f"{self.name}-shape"), random.Random(f"{self.name}:{seed}")
        p = shape.choice((2, 3, 5))
        ctx = PAdicContext(p)
        self.p, self.n = p, shape.randint(1, 3)
        self.c, self.modulus = rng.randint(1, 3), rng.choice((5, 7, 11, 13))
        # small documents: process start-up, import and JSON I/O should be
        # most of each command's time, as they are for a user's small inputs
        self.pres = redraw(random_convergent_presentation(shape, ctx, max_generators=1), rng)
        delta = delta_presentation(ctx, self.n)
        _, _, cert = normalize_to_basic(delta)
        while True:
            family, lams, params, _ = random_finite_family(shape)
            if len(lams) == 1:
                break
        atoms = formulas.parse_conjunction(format_formula(family))
        self.family = formulas.shift(atoms, {v: 12 * rng.randint(-3, 3) for v in lams})
        self.lams, self.params = lams, params
        self.point = {v: rng.randint(0, 12) for v in params}
        self._write("delta.json", to_document(delta))
        self._write("ball_scaled.json",
                    to_document(scalar_mul(p**self.c, ball_presentation(ctx, self.c))))
        self._write("ball.json", to_document(ball_presentation(ctx, 0)))
        self._write("pres.json", to_document(self.pres))
        self._write("cert.json", certificate_to_document(cert))
        super().__init__(seed, small)

    def _write(self, name: str, doc) -> None:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    def _command(self, kind: str, args: list[str], check, stdin: str | None = None,
                 known_fault: bool = False) -> Op:
        argv = [sys.executable, "-c", CLI_MAIN, *args]

        def run():
            done = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                                  cwd=self.workdir, env=self.env, timeout=120)
            return done.returncode, done.stdout, done.stderr

        return Op(kind, run, check, known_fault=known_fault)

    def build_round(self, index: int) -> list[Op]:
        p, n = self.p, self.n
        exact_delta = Fraction(1, p**n - 1)
        at = ",".join(f"{k}={v}" for k, v in self.point.items())
        domain = " /\\ ".join(f"{v} >= 0" for v in self.params) or "true"
        formula = f"E x. 3*x = y /\\ {self.modulus} | x + y"

        def exit_ok(chk, out, code=0) -> bool:
            return chk.expect("exit code", code, out[0])

        def check_measure(out, chk):
            if exit_ok(chk, out):
                chk.expect(f"measure of Delta_{n}", exact_delta, Fraction(out[1].strip()))

        def check_eq(out, chk):
            if exit_ok(chk, out):
                chk.expect("verdict", "Equal", out[1].strip())

        def check_normalize(out, chk):
            if exit_ok(chk, out):
                head, _, body = out[1].partition("\n")
                ell = int(head.split()[1])
                basic = from_document(json.loads(body))
                verdict = decide_equal(scalar_mul(ell, self.pres), basic)
                chk.expect("ell * P against the printed basic document", "Equal",
                           type(verdict).__name__)

        def check_certify(out, chk):
            if exit_ok(chk, out):
                chk.expect("replay", "valid", out[1].strip())

        def check_count(out, chk):
            if exit_ok(chk, out):
                chk.expect(f"count at {self.point}",
                           formulas.brute_force_count(self.family, self.lams, self.point),
                           Fraction(out[1].strip()))

        def check_qe(out, chk):
            if exit_ok(chk, out):
                result = parse(out[1].strip())
                for y in range(-40, 41):
                    want = y % 3 == 0 and (y // 3 + y) % self.modulus == 0
                    chk.expect(f"qe output at y={y}", want, evaluate_qf(result, {"y": y}))

        def check_oracle(out, chk):
            if exit_ok(chk, out):
                lo, hi = _parse_bracket(out[1])
                chk.expect("bracket contains 1/(p^n - 1)", True, lo <= exact_delta <= hi)
                chk.expect("bracket width", True, hi - lo <= Fraction(p) ** (n - 8))

        def check_fault(out, chk):
            code, stdout, stderr = out
            chk.expect("exit code", 2, code)
            lines = stderr.strip().splitlines()
            chk.expect("one-line error", True,
                       len(lines) == 1 and lines[0].startswith("error:") and not stdout)

        ps = str(p)
        return [
            self._command("measure", ["measure", "delta.json", "-p", ps, "--at"], check_measure),
            self._command("eq", ["eq", "ball_scaled.json", "ball.json", "-p", ps], check_eq),
            self._command("normalize", ["normalize", "pres.json", "-p", ps], check_normalize),
            self._command("certify", ["certify", "cert.json", "-p", ps], check_certify),
            self._command("count", ["count", "--formula", formulas.format_conjunction(self.family),
                                    "--lambda-vars", ",".join(self.lams), "--domain", domain,
                                    "-p", ps, "--at", at], check_count),
            self._command("qe", ["qe", "--formula", formula], check_qe),
            self._command("oracle", ["oracle", "delta.json", "-p", ps, "--at", "--depth", "8",
                                     "--window", "12"], check_oracle),
            # the CLI contract asks for exit code 2 and a one-line error on a
            # malformed document; today a JSON list ends in a traceback
            self._command("fault", ["measure", "-", "-p", "2"], check_fault, stdin="[]",
                          known_fault=True),
        ]


WORKLOADS = {w.name: w for w in (CountWorkload, EqualityWorkload, CertifyWorkload, CliWorkload)}
