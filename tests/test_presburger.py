import copy
import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from padicmeasure import clear_caches, presburger
from padicmeasure.measure import PAdicContext, Weight
from padicmeasure.presburger import (
    EQ0,
    GEQ0,
    Atom,
    ExistsF,
    ExpansionBudgetError,
    FormulaSyntaxError,
    LinearTerm,
    MissingAssignmentError,
    NotF,
    NotQuantifierFreeError,
    ScopeError,
    TRUE,
    TrueF,
    atoms_satisfiable,
    conj,
    divides,
    eq0,
    equivalent_on_box,
    evaluate_on_grid,
    evaluate_qf,
    format_formula,
    free_variables,
    geq0,
    is_quantifier_free,
    is_satisfiable,
    parse,
    parse_term,
    qe,
    simplify,
    simplify_atom,
    substitute,
)
from padicmeasure.oracle import BudgetExceededError, brute_force_qe
from padicmeasure.ring import (
    add,
    decide_equal,
    from_document,
    scalar_mul,
    to_document,
    weighted_presentation,
)
from padicmeasure.semilinear import _complement_pieces, to_cells

from generators import (
    FREE_NAMES,
    random_atom,
    random_convergent_presentation,
    random_finite_family,
    random_formula,
)

# table of (text, canonical reprint); parse then print must round-trip
PARSE_TABLE = {
    "E x. a = 2*x": "E x. a - 2*x = 0",
    "0 <= l /\\ l < 5": "l >= 0 /\\ -l + 4 >= 0",
    "x != 3": "!x - 3 = 0",
    "3 | 2*x - 1": "3 | 2*x - 1",
    "-3 | x": "3 | x",
    "1 | x": "true",
    "0 | x - 2": "x - 2 = 0",
    "A y. y >= 0 \\/ y < 0": "A y. y >= 0 \\/ -y - 1 >= 0",
    "!(x >= 0 /\\ y >= 0)": "!(x >= 0 /\\ y >= 0)",
    "2*x + -3 >= x*4 - 1": "-2*x - 2 >= 0",
    "true /\\ x = x": "true /\\ 0 = 0",
}


@pytest.mark.parametrize("text,expected", sorted(PARSE_TABLE.items()))
def test_parse_prints_canonically(text, expected):
    ast = parse(text)
    assert format_formula(ast) == expected
    assert parse(format_formula(ast)) == ast


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("l < ")
    assert err.value.lineno == 1 and err.value.offset == 5
    with pytest.raises(FormulaSyntaxError):
        parse("x * y >= 0")  # nonlinear product
    with pytest.raises(FormulaSyntaxError):
        parse("E true. true = 0")
    with pytest.raises(FormulaSyntaxError):
        parse("(x >= 0")
    with pytest.raises(FormulaSyntaxError):
        parse("x | y")  # modulus must be a literal
    with pytest.raises(ScopeError):
        parse("E x. E x. x = 0")
    with pytest.raises(FormulaSyntaxError) as err:
        parse("l >= \u0663")  # an Arabic-Indic three is no numeral
    assert err.value.lineno == 1 and err.value.offset == 6


# malformed text -> (str(err), err.lineno, err.offset); a tab is one column
SYNTAX_ERROR_GOLDEN = {
    "x >= 0 /\\\n\t\ty >=\t@ 1":
        ("unexpected character '@' (line 2, column 8)", 2, 8),
    "x >= 0\n/\\ y >= 0\n/\\ z # 1":
        ("unexpected character '#' (line 3, column 6)", 3, 6),
    "\tx >= 0 \\/\n  (y = 1\n\t/\\ z":
        ("expected a comparison or divisibility operator (line 3, column 6)", 3, 6),
    "x >= 0 /\\ y <=   \n":
        ("expected a term, found 'end of input' (line 2, column 1)", 2, 1),
    "x >= 0 y": ("trailing input starting at 'y' (line 1, column 8)", 1, 8),
    "x + A >= 0": ("'A' is reserved (line 1, column 5)", 1, 5),
    "E true. x >= 0": ("'true' is reserved (line 1, column 3)", 1, 3),
    "x*y >= 0": ("products must be integer * variable (line 1, column 2)", 1, 2),
}


@pytest.mark.parametrize("text", sorted(SYNTAX_ERROR_GOLDEN))
def test_parse_error_messages_and_positions_are_pinned(text):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert (str(err.value), err.value.lineno, err.value.offset) == SYNTAX_ERROR_GOLDEN[text]


def test_evaluate_on_grid_reduces_each_quantifier_axis():
    values = np.arange(-4, 5)
    # the bound x's axis is reduced away; a and b keep the mapping order
    got = evaluate_on_grid(parse("E x. a = 2*x /\\ b >= x"), {"a": values, "x": values,
                                                              "b": values})
    want = [[a % 2 == 0 and 2 * b >= a for b in range(-4, 5)] for a in range(-4, 5)]
    assert got.tolist() == want
    assert evaluate_on_grid(parse("A x. x = x"), {"x": values}).shape == ()
    with pytest.raises(ScopeError):
        evaluate_on_grid(parse("x >= 0 /\\ (E x. x = 2*y)"), {"x": values, "y": values})
    with pytest.raises(MissingAssignmentError):
        evaluate_on_grid(parse("E x. x = a"), {"a": values})


def test_parse_term_round_trip():
    t = parse_term("2*x - 3*y + 7")
    assert t.coeff("x") == 2 and t.coeff("y") == -3 and t.const == 7
    assert parse_term(str(t)) == t


def test_evaluate_qf_examples():
    assert evaluate_qf(parse("2 | t"), {"t": 4}) is True
    assert evaluate_qf(parse("x >= 0 /\\ x = 3"), {"x": -1}) is False
    with pytest.raises(NotQuantifierFreeError):
        evaluate_qf(parse("E y. y = x"), {"x": 0})
    with pytest.raises(MissingAssignmentError):
        evaluate_qf(parse("x + y >= 0"), {"x": 0})


def test_qe_divisibility_example():
    out = qe(parse("E x. a = 2*x"))
    assert format_formula(out) == "2 | a"


def test_qe_interval_example():
    out = qe(parse("E x. x >= 0 /\\ x <= a"))
    assert format_formula(out) == "a >= 0"


def test_qe_two_sided_example():
    f = parse("E x. 2*x >= a /\\ 3*x <= b")
    out = qe(f)
    assert is_quantifier_free(out)
    for a in range(-15, 16):
        for b in range(-15, 16):
            truth = any(2 * x >= a and 3 * x <= b for x in range(-60, 61))
            assert evaluate_qf(out, {"a": a, "b": b}) == truth


def test_qe_keeps_or_shrinks_free_variables():
    f = parse("E x. x = a + b")
    assert free_variables(qe(f)) <= {"a", "b"}
    assert qe(parse("E x. x >= y")) == TRUE


def test_forall_via_not_exists():
    f = parse("A x. 2 | x \\/ 2 | x + 1")
    assert qe(f) == TRUE
    g = parse("A x. x >= a")
    assert qe(g) == parse("false")


def test_equivalent_on_box_examples():
    assert equivalent_on_box(parse("x >= 0"), parse("!(0 - x >= 1)"), 10)
    assert not equivalent_on_box(parse("2 | x"), TRUE, 1)
    assert equivalent_on_box(qe(parse("E y. x = 2*y")), parse("2 | x"), 20)
    with pytest.raises(NotQuantifierFreeError):
        equivalent_on_box(parse("E y. y = x"), TRUE, 3)


def test_simplify_folds_and_dedups():
    f = parse("x >= 0 /\\ x >= 3 /\\ x >= 0")
    assert simplify(f) == parse("x - 3 >= 0")
    assert simplify(parse("x >= 0 /\\ 0 - x >= 1")) == parse("false")
    assert simplify(parse("4 | 2*x + 2")) == parse("2 | x + 1")
    assert simplify(parse("2*x + 3 = 0")) == parse("false")
    assert simplify(parse("3*x - 6 = 0")) == parse("x - 2 = 0")
    rng = random.Random(20261019)
    for _ in range(300):
        f = random_atom(rng, FREE_NAMES, rng.choice((4, 9)))
        atom = f.arg if isinstance(f, NotF) else f
        out = simplify_atom(atom)
        if isinstance(out, Atom):
            assert simplify_atom(out) is out
        names = atom.term.variables()
        for values in itertools.product(range(-6, 7), repeat=len(names)):
            point = dict(zip(names, values))
            assert evaluate_qf(out, point) == atom.evaluate(point), (atom, out, point)


def test_is_satisfiable():
    assert is_satisfiable(parse("x > 5 /\\ 2 | x"))
    assert not is_satisfiable(parse("x > 5 /\\ x < 3"))
    assert is_satisfiable(parse("E x. 3*x = a") & parse("a = 6"))


def test_satisfiability_table_holds_only_atom_tuples(monkeypatch):
    monkeypatch.setattr(presburger, "_SAT_RESULTS", {})
    f = parse("x > 5 /\\ 2 | x")
    assert is_satisfiable(f) and is_satisfiable(f)
    assert atoms_satisfiable(f.args)
    assert list(presburger._SAT_RESULTS) == [f.args]


def _random_conjunction(rng):
    """1 to 4 variables and 1 to 6 atoms; a negated atom is replaced by one
    of the disjoint pieces of its complement, and half of the conjunctions
    are confined to the box -5 <= v <= 5."""
    names = ("a", "b", "c", "d")[:rng.randint(1, 4)]
    atoms = []
    for _ in range(rng.randint(1, 6)):
        f = random_atom(rng, names)
        atoms += rng.choice(_complement_pieces(f.arg)) if isinstance(f, NotF) else [f]
    boxed = rng.random() < 0.5
    if boxed:
        for v in names:
            atoms += [geq0(LinearTerm.make({v: 1}, 5)), geq0(LinearTerm.make({v: -1}, 5))]
    return names, atoms, boxed


def test_atoms_satisfiable_matches_cooper_and_enumeration():
    # Pugh's example (1991): real solutions but no integer one, and no
    # variable with a unit coefficient, so no real shadow decides it
    pugh = parse("27 <= 11*x + 13*y /\\ 11*x + 13*y <= 45 /\\ "
                 "-10 <= 7*x - 9*y /\\ 7*x - 9*y <= 4")
    assert not atoms_satisfiable(pugh.args)
    assert not is_satisfiable(pugh)
    rng = random.Random(20261018)
    answers = []
    for _ in range(250):
        names, atoms, boxed = _random_conjunction(rng)
        got = atoms_satisfiable(atoms)
        try:
            assert got == is_satisfiable(conj(atoms)), atoms
        except ExpansionBudgetError:
            pass  # Cooper over the whole conjunction may exceed its budget
        if boxed:
            points = itertools.product(range(-5, 6), repeat=len(names))
            assert got == any(all(a.evaluate(dict(zip(names, p))) for a in atoms)
                              for p in points), atoms
        answers.append(got)
    # both answers occur often, so neither side of the decision goes untested
    assert 75 < sum(answers) < 175


_SMALL_MODULI = (2, 2, 3, 3, 4, 5, 6, 7, 12)
_LARGE_MODULI = (101, 1009, 65536, 99991)


def _random_system(rng):
    """1 to 3 variables and 1 to 4 atoms, each over one variable or, about a
    third of them, over two or three; half of the systems are confined to a
    box [-b, b]^n, and b is returned for them (None otherwise).  A modulus
    past 12 divides a one-variable form: on a coupled one, Cooper's branches
    over its residues would take this test seconds a system."""
    names = ("x", "y", "z")[:rng.randint(1, 3)]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        coupled = len(names) > 1 and rng.random() < 0.35
        scope = rng.sample(names, rng.randint(2, len(names))) if coupled else [rng.choice(names)]
        term = LinearTerm(tuple((v, rng.choice((-4, -3, -2, -1, 1, 1, 2, 3, 4)))
                                for v in sorted(scope)), rng.randint(-12, 12))
        roll = rng.random()
        if roll < 0.45:
            atoms.append(geq0(term))
        elif roll < 0.85:
            large = not coupled and rng.random() < 0.3
            atoms.append(divides(rng.choice(_LARGE_MODULI if large else _SMALL_MODULI), term))
        else:
            atoms.append(eq0(term))
    box = rng.randint(2, 5) if rng.random() < 0.5 else None
    if box is not None:
        for v in names:
            atoms += [geq0(LinearTerm(((v, 1),), box)), geq0(LinearTerm(((v, -1),), box))]
    return names, atoms, box


def _cooper_answer(names, atoms):
    """Whether the atoms hold somewhere, read off qe of their existential
    closure; None when qe stops at its budget."""
    f = conj(atoms)
    for v in names:
        f = ExistsF(v, f)
    try:
        return isinstance(qe(f), TrueF)
    except ExpansionBudgetError:
        return None


def _holds_in_box(names, atoms, box):
    axis = np.arange(-box, box + 1, dtype=np.int64)
    grids = dict(zip(names, np.meshgrid(*[axis] * len(names), indexing="ij")))
    holds = np.ones((len(axis),) * len(names), dtype=bool)
    for a in atoms:
        total = a.term.const + sum(c * grids[n] for n, c in a.term.coeffs)
        if a.kind == GEQ0:
            holds &= total >= 0
        elif a.kind == EQ0:
            holds &= total == 0
        else:
            holds &= total % a.modulus == 0
    return bool(holds.any())


def test_atoms_satisfiable_matches_cooper_and_enumeration_on_20000_systems(monkeypatch):
    # separable rows are decided per variable, coupled ones by elimination;
    # both must give Cooper's answer and, in a box, enumeration's.  qe runs
    # under a budget of 12 disjuncts a step, where it answers about 70% of
    # the systems in a fraction of a millisecond each; under its own budget
    # a modulus of 1009 takes it a second
    rng = random.Random(3320)
    systems = [_random_system(rng) for _ in range(20_000)]
    answers = []
    for names, atoms, box in systems:
        try:
            answers.append(atoms_satisfiable(atoms))
        except ExpansionBudgetError:
            answers.append(None)
    monkeypatch.setattr(presburger, "EXPANSION_BUDGET", 12)
    compared = boxed = 0
    for (names, atoms, box), got in zip(systems, answers):
        if got is None:
            continue
        cooper = _cooper_answer(names, atoms)
        if cooper is not None:
            assert got == cooper, atoms
            compared += 1
        if box is not None:
            assert got == _holds_in_box(names, atoms, box), atoms
            boxed += 1
    # few systems stop at the budget, each answer is common, and most
    # answers meet a reference
    assert answers.count(None) < 200
    assert 6000 < answers.count(True) < 14000
    assert compared > 14000 and boxed > 9000


def test_atoms_are_normalized_once(monkeypatch):
    # an atom's row is worked out on its first use and kept on it, so
    # repeated simplification and satisfiability queries over the same atoms,
    # in new orders and combinations, normalize each distinct atom once
    calls = []

    def spy(rows, kind, coeffs, const, modulus, original=presburger._add_row):
        calls.append((kind, coeffs, const, modulus))
        return original(rows, kind, coeffs, const, modulus)

    monkeypatch.setattr(presburger, "_add_row", spy)
    atoms = [parse(text) for text in ("2*x - 4 >= 0", "-x + 9 >= 0", "6 | 4*x + 2",
                                      "y >= 1", "3 | y", "-3*y + 30 >= 0")]
    for a in atoms:
        simplify_atom(a)
        simplify_atom(a)
    for r in range(1, len(atoms) + 1):
        for chosen in itertools.combinations(atoms, r):
            answer = atoms_satisfiable(chosen)
            assert atoms_satisfiable(chosen[::-1]) == answer
            points = itertools.product(range(-2, 12), repeat=2)
            assert answer == any(all(a.evaluate({"x": x, "y": y}) for a in chosen)
                                 for x, y in points), chosen
    assert sorted(calls) == sorted((a.kind, a.term.coeffs, a.term.const, a.modulus)
                                   for a in atoms)


def test_separable_rows_answer_where_cooper_stops_at_its_budget():
    # one Cooper step on x here needs 99991 * 2 disjuncts; decided per
    # variable, x needs the first point of its residue class at or above 0,
    # and the coupled pair of rows on y is first eliminated exactly
    for text, answer in (("x >= 0 /\\ x <= 10 /\\ 99991 | x + 3", False),
                         ("x >= 0 /\\ x <= 10 /\\ 99991 | x - 7", True),
                         ("y >= x /\\ y <= x + 3 /\\ x >= 0 /\\ x <= 10 /\\ 99991 | x - 7", True),
                         ("y >= x /\\ y <= x + 3 /\\ x >= 0 /\\ x <= 10 /\\ 99991 | x + 3", False)):
        f = parse(text)
        with pytest.raises(ExpansionBudgetError):
            qe(ExistsF("x", ExistsF("y", f)) if "y" in text else ExistsF("x", f))
        assert atoms_satisfiable(f.args) is answer, text
        points = itertools.product(range(-2, 12), range(-2, 16))
        assert any(evaluate_qf(f, {"x": x, "y": y}) for x, y in points) is answer


def test_contradictory_one_variable_rows_need_no_cooper_step(monkeypatch):
    # the rows on y alone say y >= 12 and y <= -2; the Cooper step on x,
    # coupled to y by the divisibility, once tried all 99991 residues of x
    # to find that out
    branched = []

    def spy(*args, original=presburger._cooper_branches):
        branched.append(args[1])
        return original(*args)

    monkeypatch.setattr(presburger, "_cooper_branches", spy)
    f = parse("99991 | x - y - 12 /\\ y - 12 >= 0 /\\ -4*y - 6 >= 0")
    assert atoms_satisfiable(f.args) is False
    assert branched == []
    # feasible one-variable rows still go on to the Cooper step
    f = parse("x - y >= 0 /\\ 5 | x + y /\\ 3 | x - 2*y - 1 /\\ y >= 2 /\\ y <= 3")
    assert atoms_satisfiable(f.args) is True
    assert branched


def test_one_variable_rows_that_pin_a_variable_need_no_cooper_step(monkeypatch):
    # -3*y - 7 >= 0 and 2*y + 6 >= 0 leave y = -3 alone; substituted, it
    # leaves x >= 21 and 99991 | x + 10, where a Cooper step on x once tried
    # 99991 test points
    branched = []

    def spy(*args, original=presburger._cooper_branches):
        branched.append(args[1])
        return original(*args)

    monkeypatch.setattr(presburger, "_cooper_branches", spy)
    f = parse("x + 4*y - 9 >= 0 /\\ 99991 | x - 4*y - 2 /\\ -3*y - 7 >= 0 /\\ 2*y + 6 >= 0")
    assert atoms_satisfiable(f.args) is True
    # a pin that contradicts a coupled row: y = -3 leaves x >= 21 and x <= 20
    f = parse("x + 4*y - 9 >= 0 /\\ 99991 | x - 4*y - 2 /\\ -3*y - 7 >= 0 /\\ 2*y + 6 >= 0"
              " /\\ x <= 20")
    assert atoms_satisfiable(f.args) is False
    assert branched == []


def test_coupled_rows_over_the_budget_still_raise():
    # no elimination separates these rows, and one Cooper step on either
    # variable counts more than EXPANSION_BUDGET disjuncts
    f = parse("x >= 0 /\\ y >= 0 /\\ x + y <= 10 /\\ 99991 | x + 2*y")
    with pytest.raises(ExpansionBudgetError, match="over the budget"):
        atoms_satisfiable(f.args)


def test_qe_matches_brute_force_on_random_formulas():
    rng = random.Random(20260808)
    checked = 0
    while checked < 40:
        f = random_formula(rng)
        try:
            table = brute_force_qe(f, 8)
        except BudgetExceededError:
            continue
        out = qe(f)
        assert is_quantifier_free(out)
        assert equivalent_on_box(out, table, 8), format_formula(f)
        checked += 1


def test_qe_upper_boundary_branch():
    # more lower bounds than upper bounds selects the upper boundary set
    cases = [
        "E x. x >= a /\\ x >= b /\\ x >= c /\\ x <= a + 3",
        "E x. x >= a /\\ x >= b /\\ 2*x <= c",
        "A x. x <= a \\/ x <= b \\/ x >= c",
        "E x. x >= a /\\ x >= b /\\ x != c /\\ x <= 5",
        "E x. 3 | x - a /\\ x >= b /\\ x >= c /\\ x <= b + 7",
    ]
    for text in cases:
        f = parse(text)
        assert equivalent_on_box(qe(f), brute_force_qe(f, 7), 7), text


def test_qe_idempotent_up_to_equivalence():
    rng = random.Random(7)
    for _ in range(25):
        f = random_formula(rng, max_quantifiers=2, max_free=2)
        once = qe(f)
        twice = qe(once)
        assert equivalent_on_box(once, twice, 10)


def test_print_parse_evaluation_agreement():
    rng = random.Random(99)
    for _ in range(60):
        f = random_formula(rng, max_quantifiers=0)
        g = parse(format_formula(f))
        for _ in range(20):
            point = {v: rng.randint(-8, 8) for v in free_variables(f)}
            assert evaluate_qf(f, point) == evaluate_qf(g, point)


def test_linear_term_invariants():
    t = LinearTerm.make({"x": 1, "y": 0}, 3)
    assert t.coeffs == (("x", 1),)  # zero coefficients are never stored
    with pytest.raises(ValueError):
        LinearTerm.make({"2bad": 1})
    with pytest.raises(ValueError):
        LinearTerm.make({"true": 1})


def test_linear_term_keeps_rational_coefficients():
    t = LinearTerm.make({"x": Fraction(1, 2)}, 3)
    assert t.coeffs == (("x", Fraction(1, 2)),) and str(t) == "1/2*x + 3"
    whole = LinearTerm.make({"x": Fraction(4, 2)}, Fraction(6, 3))
    assert whole == LinearTerm.make({"x": 2}, 2) and str(whole) == "2*x + 2"
    assert all(type(c) is int for c in (whole.coeff("x"), whole.const, t.scale(2).coeff("x")))
    assert t.integer_term(2) == LinearTerm.make({"x": 1}, 6)
    with pytest.raises(ValueError):
        t.integer_term()
    with pytest.raises(ValueError):
        t.integer_term(3)
    # the internal placeholders build; other names outside the grammar do not
    assert LinearTerm.make({"@i": 1, "@m0": 2, "@m12": 3}).variables() == ("@i", "@m0", "@m12")
    for name in ("@x", "@z12"):
        with pytest.raises(ValueError):
            LinearTerm.make({name: 1})


def test_atom_invariants():
    with pytest.raises(ValueError):
        divides(1, LinearTerm.variable("x"))
    atom = divides(4, LinearTerm.make({"x": 6}, 2))
    assert simplify(atom) == divides(2, LinearTerm.make({"x": 1}, 1))


# ---------------------------------------------------------------------------
# hash-consed atoms


def test_equal_atoms_are_one_object():
    # every path that builds an atom returns the one stored in the table
    atom = geq0(LinearTerm.make({"x": 2, "y": -1}, 3))
    assert parse("2*x - y + 3 >= 0") is atom
    assert parse("y <= 2*x + 3") is atom
    assert simplify_atom(geq0(LinearTerm.make({"x": 4, "y": -2}, 6))) is atom
    assert substitute(parse("2*x - z + 3 >= 0"), "z", LinearTerm.make({"y": 1})) is atom
    assert Atom(kind=GEQ0, term=LinearTerm.make({"x": 2, "y": -1}, 3), modulus=0) is atom
    assert copy.copy(atom) is atom and copy.deepcopy(atom) is atom
    assert pickle.loads(pickle.dumps(atom)) is atom
    ctx = PAdicContext(2)
    pres = weighted_presentation(ctx, parse("0 <= l /\\ l < s /\\ 3 | l + s"),
                                 Weight.make(1, LinearTerm.constant(-1), {"l": -1}),
                                 ["s"], parse("s >= 0"))
    document = to_document(pres)
    first, second = from_document(document), from_document(document)
    assert first.param_domain is second.param_domain is parse("s >= 0")
    lam_first = first.generators[0][1].lambda_formula
    lam_second = second.generators[0][1].lambda_formula
    assert len(lam_first.args) == 3
    assert all(a is b for a, b in zip(lam_first.args, lam_second.args))


def test_atoms_hash_as_their_fields_across_a_clear():
    atom = divides(3, LinearTerm.make({"s": 1}, 1))
    assert hash(atom) == hash((atom.kind, atom.term, atom.modulus))
    clear_caches()
    twin = divides(3, LinearTerm.make({"s": 1}, 1))
    assert twin is not atom
    assert twin == atom and atom == twin and hash(twin) == hash(atom)
    assert {atom: 1}[twin] == 1
    assert divides(3, LinearTerm.make({"s": 1}, 1)) is twin


def test_answers_do_not_depend_on_the_tables():
    # the same queries, run twice with the tables filled by the first run
    # and once more after a clear, give the same answers
    rng = random.Random(2701)
    scope = ["x", "y", "s"]
    conjunctions = []
    for _ in range(40):
        atoms = [random_atom(rng, scope) for _ in range(rng.randint(1, 4))]
        conjunctions.append([a for a in atoms if isinstance(a, Atom)])
    families = [random_finite_family(rng)[:3] for _ in range(6)]
    ctx = PAdicContext(2)
    presentations = [random_convergent_presentation(rng, ctx) for _ in range(4)]

    def answers():
        return ([atoms_satisfiable(atoms) for atoms in conjunctions],
                [repr(to_cells(f, lams, params)) for f, lams, params in families],
                [repr(decide_equal(p, scalar_mul(2, p))) + repr(decide_equal(p, add(p, p)))
                 for p in presentations])

    first = answers()
    assert answers() == first
    clear_caches()
    assert answers() == first
