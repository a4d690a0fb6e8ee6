"""The package's immutable value classes: equality, hashing, immutability,
constructor signatures and repr."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from padicmeasure.algebra import LinearTerm, Polynomial
from padicmeasure.measure import (
    BoxCell,
    Coordinate,
    DegenerateCoordinate,
    ExpPolynomial,
    ExpTerm,
    MeasureFunction,
    NonZeroWitness,
    PAdicContext,
    Weight,
)
from padicmeasure.oracle import BoxTable, Bracket
from padicmeasure.presburger import (
    FALSE,
    GEQ0,
    TRUE,
    AndF,
    Atom,
    ExistsF,
    ForallF,
    Formula,
    NotF,
    OrF,
    divides,
    format_formula,
    geq0,
    parse,
)
from padicmeasure.ring import (
    BasicPresentation,
    Certificate,
    CertificateStep,
    Equal,
    NotEqual,
    Presentation,
)
from padicmeasure.semilinear import GuardedCell, Level, PiecewisePolynomial, SumTerm, Tower

TERM = LinearTerm.make({"s": 1, "l1": -2}, 3)
POLY = Polynomial.make({(("s", 1),): Fraction(1, 2), (): 1})
ATOM = Atom(GEQ0, TERM)
ARGS = (ATOM, divides(3, TERM))
CTX = PAdicContext(2)
WEIGHT = Weight.make(2, LinearTerm.make({"s": 1}), {"l1": -1})
COORD = Coordinate(Fraction(1, 3), 2, 1)
POINT = DegenerateCoordinate(Fraction(0))
CELL = BoxCell((COORD, POINT), ("l1",), TRUE)
EXP_TERM = ExpTerm((ATOM,), POLY, TERM)
EXP_POLY = ExpPolynomial(2, ("s",), (EXP_TERM,))
PRES = Presentation(CTX, ("s",), TRUE, ((Fraction(1), CELL),))
STEP = CertificateStep("R1", "note", PRES, PRES)
LEVEL = Level("l1", "range", TERM, 1, LinearTerm.constant(4))
PIECEWISE = PiecewisePolynomial(("s",), (((ATOM,), POLY),))

# one instance of every value class, with its field names in order
VALUES = [
    (TERM, ("coeffs", "const")),
    (POLY, ("terms",)),
    (ATOM, ("kind", "term", "modulus")),
    (TRUE, ()),
    (FALSE, ()),
    (NotF(ATOM), ("arg",)),
    (AndF(ARGS), ("args",)),
    (OrF(ARGS), ("args",)),
    (ExistsF("l1", ATOM), ("var", "body")),
    (ForallF("l1", ATOM), ("var", "body")),
    (CTX, ("p",)),
    (WEIGHT, ("r", "c", "b")),
    (COORD, ("center", "level", "ac")),
    (POINT, ("point",)),
    (CELL, ("coords", "lambda_vars", "lambda_formula", "weight")),
    (EXP_TERM, ("guard", "poly", "exponent")),
    (EXP_POLY, ("p", "param_vars", "terms")),
    (NonZeroWitness((("s", 3),), Fraction(1, 2)), ("point", "value")),
    (MeasureFunction(EXP_POLY, TRUE), ("exp_poly", "param_domain")),
    (Bracket(Fraction(1, 4), Fraction(1, 2), 8, 12),
     ("lower", "upper", "depth", "valuation_window")),
    (BoxTable(("x",), 1, np.zeros(3, dtype=bool)), ("variables", "bound", "values")),
    (PRES, ("ctx", "param_vars", "param_domain", "generators")),
    (Equal(), ()),
    (NotEqual((("s", 3),), Fraction(1, 2), Fraction(0)), ("witness", "value1", "value2")),
    (STEP, ("rule", "note", "before", "after")),
    (Certificate((STEP,)), ("steps",)),
    (BasicPresentation(PRES, (PIECEWISE,)), ("presentation", "fiber_counts")),
    (GuardedCell(("l1",), (ATOM,), (divides(3, LinearTerm.make({"s": 1})),)),
     ("variables", "constraints", "param_guard")),
    (LEVEL, ("var", "kind", "start", "step", "count")),
    (Tower(("l1",), (LEVEL,), (ATOM,)), ("variables", "levels", "guard")),
    (SumTerm(POLY, TERM), ("poly", "exponent")),
    (PIECEWISE, ("param_vars", "pieces")),
]
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_values_compare_and_hash_by_class_and_fields(value, names):
    fields = tuple(getattr(value, name) for name in names)
    positional = type(value)(*fields)
    by_keyword = type(value)(**dict(zip(names, fields)))
    if isinstance(value, Atom):
        # equal atoms built while in the table are one object; value was
        # built before the autouse fixture emptied it, and stays equal
        assert by_keyword is positional
    else:
        assert positional is not value
    assert positional == value and by_keyword == value
    assert value != fields and fields != value
    if isinstance(value, BoxTable):
        # an array is not hashable, so neither is the field tuple
        with pytest.raises(TypeError):
            hash(value)
        return
    # the hash is the field tuple's, so dict and set orders follow the fields
    assert hash(value) == hash(positional) == hash(fields)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_values_are_immutable(value, names):
    for name in names + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_values_copy_and_pickle(value, names):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        if not isinstance(value, BoxTable):  # an array compares elementwise
            assert twin == value


def test_equal_fields_of_other_classes_differ():
    assert AndF(ARGS) != OrF(ARGS)
    assert ExistsF("l1", ATOM) != ForallF("l1", ATOM)
    assert TRUE != FALSE and TRUE == type(TRUE)()
    assert ATOM != (ATOM.kind, ATOM.term, ATOM.modulus)
    assert Atom(GEQ0, TERM) == ATOM and Atom(GEQ0, TERM, 0) == ATOM
    assert Equal() == Equal()
    with pytest.raises(ValueError, match="modulus"):
        Atom(GEQ0, TERM, 3)
    with pytest.raises(ValueError, match="must be >= 2"):
        divides(1, TERM)
    with pytest.raises(ValueError, match="bad atom kind"):
        Atom("lt", TERM)


def test_value_reprs_are_unchanged():
    assert repr(LinearTerm.make({"x": 2, "y": Fraction(1, 2)}, 3)) == (
        "LinearTerm(coeffs=(('x', 2), ('y', Fraction(1, 2))), const=3)")
    assert repr(POLY) == "Polynomial(terms=(((), 1), ((('s', 1),), Fraction(1, 2))))"
    assert repr(WEIGHT) == (
        "Weight(r=2, c=LinearTerm(coeffs=(('s', 1),), const=0), b=(('l1', -1),))")
    assert repr(COORD) == "Coordinate(center=Fraction(1, 3), level=2, ac=1)"
    assert repr(CELL) == (
        "BoxCell(coords=(Coordinate(center=Fraction(1, 3), level=2, ac=1), "
        "DegenerateCoordinate(point=Fraction(0, 1))), lambda_vars=('l1',), "
        f"lambda_formula={TRUE!r}, weight=None)")
    assert repr(NotEqual((("s", 3),), Fraction(1, 2), Fraction(0))) == (
        "NotEqual(witness=(('s', 3),), value1=Fraction(1, 2), value2=Fraction(0, 1))")
    assert repr(Bracket(Fraction(1, 4), Fraction(1, 2), 8, 12)) == (
        "Bracket(lower=Fraction(1, 4), upper=Fraction(1, 2), depth=8, valuation_window=12)")
    assert repr(ATOM) == (
        "Atom(kind='geq0', term=LinearTerm(coeffs=(('l1', -2), ('s', 1)), const=3), modulus=0)")
    # formula nodes other than atoms print as formulas with str and keep object's repr
    for node in (TRUE, NotF(ATOM), AndF(ARGS)):
        assert repr(node).startswith(f"<padicmeasure.presburger.{type(node).__name__} object at ")


def test_atom_is_the_formula_leaf():
    # an atom is one object in formulas, guards and satisfiability rows alike
    assert isinstance(ATOM, Formula)
    assert str(ATOM) == format_formula(ATOM) == "-2*l1 + s + 3 >= 0"
    assert parse("2*x + 1 >= 0") == geq0(LinearTerm.make({"x": 2}, 1))
    assert NotF(ATOM) != ATOM and ATOM != NotF(ATOM)
    assert AndF((ATOM,)) != ATOM


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_value_repr_lists_the_fields(value, names):
    if isinstance(value, Formula) and not isinstance(value, Atom):
        return
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{type(value).__name__}({fields})"
