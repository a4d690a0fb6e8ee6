"""Presburger formulas over the integers: AST, parser, printer, evaluation,
and total quantifier elimination.

Atoms, the leaves of every formula, are kept normalized as  t >= 0,  t = 0
and  m | t  with integer linear terms t; all comparison operators are folded
into these three shapes at parse time.  Quantifier elimination is
Cooper-style: it introduces divisibility constraints instead of computing
disjunctive normal forms, handles "forall" as not-exists-not, and eliminates
the innermost quantifier first.  A conjunction of atoms is decided by
atoms_satisfiable instead, which works on the atoms and builds no formula.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .algebra import (
    RESERVED,
    HashSlot,
    LinearTerm,
    MissingAssignmentError,
    Value,
    cache_tables,
    crt,
    remember,
)


class FormulaSyntaxError(SyntaxError):
    """Malformed formula text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.lineno = line
        self.offset = column

    def __str__(self) -> str:
        # SyntaxError's own __str__ would append "(line N)" to the message
        return self.msg


class NotQuantifierFreeError(ValueError):
    pass


class ScopeError(ValueError):
    pass


# Most disjuncts one Cooper elimination step may build.  The test suite and
# the benchmark workloads need at most a few hundred; a huge divisibility
# modulus would otherwise run for minutes and fill memory.
EXPANSION_BUDGET = 100_000


class ExpansionBudgetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# formulas


class Formula(Value):
    """Base class of the formula nodes below, immutable values that compare
    and hash by class and fields, as every Value does, and print as
    formulas.  Atom, the leaf that carries a term, keeps the fields repr of
    a Value and is a HashSlot, so it keeps its hash; the other nodes keep
    object's repr."""

    __slots__ = ()
    __repr__ = object.__repr__

    def __and__(self, other: Formula) -> Formula:
        return conj([self, other])

    def __or__(self, other: Formula) -> Formula:
        return disj([self, other])

    def __invert__(self) -> Formula:
        return neg(self)

    def __str__(self) -> str:
        return format_formula(self)


GEQ0 = "geq0"
EQ0 = "eq0"
DIV = "div"


# Every atom built, by its fields (Filliatre and Conchon's hash-consing,
# 2006): Atom(...) returns the stored atom, so equal atoms are one object
# while they are in the table.  Equality still falls back to the fields, so
# an evicted atom and its newer twin stay equal.
_ATOMS: dict = {}
ATOMS_BOUND = 1 << 15
cache_tables(globals(), "_ATOMS")


class _RowSlot(HashSlot):
    """Base of Atom: the slot _row keeps the atom's normal form, which
    _normal_row works out the first time it is read.  Like HashSlot's _hash
    it is no field, so Atom's own __slots__ still name exactly its fields."""

    __slots__ = ("_row",)


class Atom(Formula, _RowSlot):
    """t >= 0, t = 0, or m | t (modulus m >= 2)."""

    __slots__ = ("kind", "term", "modulus")
    __repr__ = Value.__repr__

    def __new__(cls, kind: str, term: LinearTerm, modulus: int = 0):
        key = (kind, term.coeffs, term.const, modulus)
        if (atom := _ATOMS.get(key)) is not None:
            return atom
        if kind not in (GEQ0, EQ0, DIV):
            raise ValueError(f"bad atom kind {kind}")
        if kind == DIV and modulus < 2:
            raise ValueError("divisibility modulus must be >= 2")
        if kind != DIV and modulus != 0:
            raise ValueError("modulus only allowed on divisibility atoms")
        atom = object.__new__(cls)
        object.__setattr__(atom, "kind", kind)
        object.__setattr__(atom, "term", term)
        object.__setattr__(atom, "modulus", modulus)
        return remember(_ATOMS, key, atom, ATOMS_BOUND)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        v = self.term.evaluate(assignment)
        if self.kind == GEQ0:
            return v >= 0
        if self.kind == EQ0:
            return v == 0
        return v % self.modulus == 0

    def __str__(self) -> str:
        if self.kind == GEQ0:
            return f"{self.term} >= 0"
        if self.kind == EQ0:
            return f"{self.term} = 0"
        return f"{self.modulus} | {self.term}"


def geq0(term: LinearTerm) -> Atom:
    return Atom(GEQ0, term)


def eq0(term: LinearTerm) -> Atom:
    return Atom(EQ0, term)


def divides(modulus: int, term: LinearTerm) -> Atom:
    return Atom(DIV, term, modulus)


class TrueF(Formula):
    __slots__ = ()


class FalseF(Formula):
    __slots__ = ()


class NotF(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        object.__setattr__(self, "arg", arg)


class AndF(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]):
        object.__setattr__(self, "args", args)


class OrF(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]):
        object.__setattr__(self, "args", args)


class ExistsF(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


class ForallF(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


TRUE = TrueF()
FALSE = FalseF()


def conj(args: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, AndF):
            flat.extend(a.args)
        elif isinstance(a, TrueF):
            continue
        elif isinstance(a, FalseF):
            return FALSE
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndF(tuple(flat))


def disj(args: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, OrF):
            flat.extend(a.args)
        elif isinstance(a, FalseF):
            continue
        elif isinstance(a, TrueF):
            return TRUE
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrF(tuple(flat))


def neg(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, NotF):
        return f.arg
    return NotF(f)


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, Atom):
        return frozenset(f.term.variables())
    if isinstance(f, NotF):
        return free_variables(f.arg)
    if isinstance(f, (AndF, OrF)):
        out: frozenset[str] = frozenset()
        for a in f.args:
            out |= free_variables(a)
        return out
    if isinstance(f, (ExistsF, ForallF)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (TrueF, FalseF, Atom)):
        return True
    if isinstance(f, NotF):
        return is_quantifier_free(f.arg)
    if isinstance(f, (AndF, OrF)):
        return all(is_quantifier_free(a) for a in f.args)
    return False


def check_scopes(f: Formula, bound: frozenset[str] = frozenset()) -> None:
    """Reject variables bound twice along one path (shadowing)."""
    if isinstance(f, (ExistsF, ForallF)):
        if f.var in bound:
            raise ScopeError(f"variable {f.var!r} bound twice on one path")
        check_scopes(f.body, bound | {f.var})
    elif isinstance(f, NotF):
        check_scopes(f.arg, bound)
    elif isinstance(f, (AndF, OrF)):
        for a in f.args:
            check_scopes(a, bound)


def evaluate_qf(f: Formula, assignment: Mapping[str, int]) -> bool:
    """Truth value of a quantifier-free formula under an integer assignment."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.evaluate(assignment)
    if isinstance(f, NotF):
        return not evaluate_qf(f.arg, assignment)
    if isinstance(f, AndF):
        return all(evaluate_qf(a, assignment) for a in f.args)
    if isinstance(f, OrF):
        return any(evaluate_qf(a, assignment) for a in f.args)
    if isinstance(f, (ExistsF, ForallF)):
        raise NotQuantifierFreeError("formula contains a quantifier")
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, name: str, value: LinearTerm) -> Formula:
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return Atom(f.kind, f.term.substitute(name, value), f.modulus)
    if isinstance(f, NotF):
        return neg(substitute(f.arg, name, value))
    if isinstance(f, AndF):
        return conj(substitute(a, name, value) for a in f.args)
    if isinstance(f, OrF):
        return disj(substitute(a, name, value) for a in f.args)
    if isinstance(f, (ExistsF, ForallF)):
        if f.var == name or f.var in value.variables():
            raise ScopeError("substitution would capture a bound variable")
        body = substitute(f.body, name, value)
        return type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<int>[0-9]+)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op>/\\|\\/|!=|<=|>=|<|>|=|\||\+|-|\*|\(|\)|\.|!)
      | (?P<bad>\S))
    """,
    re.VERBOSE,
)


# a token is (kind, text, offset), kind "int", "name", "op" or "end"
_Token = tuple[str, str, int]


def _syntax_error(message: str, text: str, offset: int) -> FormulaSyntaxError:
    """FormulaSyntaxError at offset in text, with its 1-based line and
    column; a tab is one column."""
    return FormulaSyntaxError(message, text.count("\n", 0, offset) + 1,
                              offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text and an "end" token, in one regex pass that skips
    whitespace before each token.  Tokens carry offsets, which _syntax_error
    turns into a line and column only for the error it raises."""
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN_RE.finditer(text)]
    for kind, value, offset in tokens:
        if kind == "bad":
            raise _syntax_error(f"unexpected character {value!r}", text, offset)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        # only a name looks ahead, and the end token follows it
        return self.tokens[self.pos + ahead]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token) -> FormulaSyntaxError:
        return _syntax_error(message, self.text, tok[2])

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok[1] != text:
            raise self.error(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def fail(self, message: str) -> FormulaSyntaxError:
        return self.error(message, self.peek())

    # precedence: ! > /\ > \/ > quantifiers
    def parse_formula(self) -> Formula:
        kind, text = self.peek()[:2]
        if kind == "name" and text in ("E", "A") and self.peek(1)[0] == "name":
            self.next()
            var = self.next()
            if var[1] in RESERVED:
                raise self.error(f"{var[1]!r} is reserved", var)
            self.expect(".")
            body = self.parse_formula()
            return ExistsF(var[1], body) if text == "E" else ForallF(var[1], body)
        return self.parse_or()

    def parse_or(self) -> Formula:
        args = [self.parse_and()]
        while self.peek()[1] == "\\/":
            self.next()
            args.append(self.parse_and())
        return args[0] if len(args) == 1 else OrF(tuple(args))

    def parse_and(self) -> Formula:
        args = [self.parse_not()]
        while self.peek()[1] == "/\\":
            self.next()
            args.append(self.parse_not())
        return args[0] if len(args) == 1 else AndF(tuple(args))

    def parse_not(self) -> Formula:
        if self.peek()[1] == "!":
            self.next()
            return neg(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind, text = self.peek()[:2]
        if text == "(":
            self.next()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if kind == "name" and text == "true":
            self.next()
            return TRUE
        if kind == "name" and text == "false":
            self.next()
            return FALSE
        coeffs: dict[str, int] = {}
        const = self.add_term(coeffs, 1)
        op = self.peek()
        if op[1] == "|":
            if any(coeffs.values()):
                raise self.error("divisibility modulus must be an integer literal", op)
            self.next()
            return _make_divisibility(const, self.parse_term())
        if op[1] not in _COMPARISONS:
            raise self.fail("expected a comparison or divisibility operator")
        self.next()
        const += self.add_term(coeffs, -1)  # coeffs and const hold left - right
        make, sign, shift = _COMPARISONS[op[1]]
        f = make(_linear_term(coeffs, const + shift, sign))
        return neg(f) if op[1] == "!=" else f

    def parse_term(self) -> LinearTerm:
        coeffs: dict[str, int] = {}
        const = self.add_term(coeffs, 1)
        return _linear_term(coeffs, const, 1)

    def add_term(self, coeffs: dict[str, int], sign: int) -> int:
        """Read a term, add sign times its variable coefficients to coeffs,
        and return sign times its constant."""
        const = 0
        summand = sign
        while True:
            while self.peek()[1] == "-":
                self.next()
                summand = -summand
            k, name = self.parse_factor()
            if name is None:
                const += summand * k
            else:
                coeffs[name] = coeffs.get(name, 0) + summand * k
            op = self.peek()[1]
            if op not in ("+", "-"):
                return const
            self.next()
            summand = sign if op == "+" else -sign

    def parse_factor(self) -> tuple[int, str | None]:
        """A product, as (k, name) for k * name, or (k, None) for the
        constant k; a zero factor makes the product a constant."""
        k, name = self.parse_primary()
        while self.peek()[1] == "*":
            star = self.next()
            sign = 1
            while self.peek()[1] == "-":
                self.next()
                sign = -sign
            k2, name2 = self.parse_primary()
            if name is not None and name2 is not None:
                raise self.error("products must be integer * variable", star)
            k *= sign * k2
            name = (name or name2) if k else None
        return k, name

    def parse_primary(self) -> tuple[int, str | None]:
        tok = self.next()
        kind, text = tok[:2]
        if kind == "int":
            return int(text), None
        if kind == "name":
            if text in RESERVED:
                raise self.error(f"{text!r} is reserved", tok)
            return 1, text
        raise self.error(f"expected a term, found {text or 'end of input'!r}", tok)


# each comparison as make(sign * (left - right + shift)), negated for !=
_COMPARISONS = {"<": (geq0, -1, 1), "<=": (geq0, -1, 0), ">": (geq0, 1, -1),
                ">=": (geq0, 1, 0), "=": (eq0, 1, 0), "!=": (eq0, 1, 0)}


def _linear_term(coeffs: dict[str, int], const: int, sign: int) -> LinearTerm:
    """sign * (the term with these integer coefficients and constant)."""
    return LinearTerm(tuple(sorted((n, sign * c) for n, c in coeffs.items() if c)), sign * const)


def _make_divisibility(modulus: int, term: LinearTerm) -> Formula:
    m = abs(modulus)
    if m == 0:
        return eq0(term)
    if m == 1:
        return TRUE
    return divides(m, term)


T = TypeVar("T")


def _read_all(parser: _Parser, rule: Callable[[], T]) -> T:
    """rule's result, which must read all of the parser's text.  Nesting too
    deep for the recursive descent (a RecursionError) is a FormulaSyntaxError
    at the token reached."""
    try:
        result = rule()
    except RecursionError:
        raise parser.fail("nesting too deep to parse") from None
    end = parser.peek()
    if end[0] != "end":
        raise parser.error(f"trailing input starting at {end[1]!r}", end)
    return result


def parse(text: str) -> Formula:
    """Parse formula text into its AST; raises FormulaSyntaxError with position."""
    parser = _Parser(text)
    f = _read_all(parser, parser.parse_formula)
    check_scopes(f)
    return f


def parse_domain(text: str) -> Formula:
    """Parse a parameter domain or a counted formula; a quantified one is
    replaced by its quantifier elimination, a quantifier-free one is kept as
    written."""
    f = parse(text)
    return f if is_quantifier_free(f) else qe(f)


def parse_term(text: str) -> LinearTerm:
    parser = _Parser(text)
    return _read_all(parser, parser.parse_term)


# ---------------------------------------------------------------------------
# printer

_LEVEL_QUANT = 0
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_NOT = 3


def _level(f: Formula) -> int:
    if isinstance(f, (ExistsF, ForallF)):
        return _LEVEL_QUANT
    if isinstance(f, OrF):
        return _LEVEL_OR
    if isinstance(f, AndF):
        return _LEVEL_AND
    if isinstance(f, NotF):
        return _LEVEL_NOT
    return 4


def format_formula(f: Formula) -> str:
    """Canonical text; parse(format_formula(f)) reproduces the AST."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, NotF):
        inner = format_formula(f.arg)
        if _level(f.arg) <= _LEVEL_AND:
            inner = f"({inner})"
        return "!" + inner
    if isinstance(f, AndF):
        parts = [
            f"({format_formula(a)})" if _level(a) <= _LEVEL_AND else format_formula(a)
            for a in f.args
        ]
        return " /\\ ".join(parts)
    if isinstance(f, OrF):
        parts = [
            f"({format_formula(a)})" if _level(a) <= _LEVEL_OR else format_formula(a)
            for a in f.args
        ]
        return " \\/ ".join(parts)
    if isinstance(f, ExistsF):
        return f"E {f.var}. {format_formula(f.body)}"
    if isinstance(f, ForallF):
        return f"A {f.var}. {format_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# simplification

def simplify_atom(atom: Atom) -> Formula:
    """The atom in the normal form of _add_row: TRUE, FALSE or one atom."""
    simple = _normal_row(atom)[0]
    return atom if simple is None else simple


def simplify(f: Formula) -> Formula:
    """Structural, sound simplification: constant folding, gcd reduction,
    flattening, deduplication, absorption, and one-variable interval checks."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return simplify_atom(f)
    if isinstance(f, NotF):
        inner = simplify(f.arg)
        return neg(inner)
    if isinstance(f, (ExistsF, ForallF)):
        body = simplify(f.body)
        if f.var not in free_variables(body):
            return body
        return type(f)(f.var, body)
    if isinstance(f, (AndF, OrF)):
        is_and = isinstance(f, AndF)
        args: list[Formula] = []
        seen = set()
        stack = list(f.args)
        i = 0
        while i < len(stack):
            a = simplify(stack[i])
            i += 1
            if isinstance(a, AndF if is_and else OrF):
                stack[i:i] = list(a.args)
                continue
            if isinstance(a, TrueF):
                if is_and:
                    continue
                return TRUE
            if isinstance(a, FalseF):
                if is_and:
                    return FALSE
                continue
            if a in seen:
                continue
            seen.add(a)
            args.append(a)
        # complementary literals
        for a in args:
            if neg(a) in seen:
                return FALSE if is_and else TRUE
        if is_and:
            args = _fold_geq_and(args)
            if args is None:
                return FALSE
        if not args:
            return TRUE if is_and else FALSE
        if len(args) == 1:
            return args[0]
        return AndF(tuple(args)) if is_and else OrF(tuple(args))
    raise TypeError(f"not a formula: {f!r}")


def simplify_conjunction(atoms: Iterable[Atom]) -> tuple[Atom, ...] | None:
    """The atoms of simplify(conj(atoms)), in the order
    simplify gives them (first appearance), worked out on the atoms: () for
    TRUE, None for FALSE.  This is the canonical form of a guard."""
    kept: dict[Atom, None] = {}
    for a in atoms:
        result = simplify_atom(a)
        if isinstance(result, FalseF):
            return None
        if isinstance(result, Atom):
            kept[result] = None
    folded = _fold_geq_and(list(kept))
    return None if folded is None else tuple(folded)


def _fold_geq_and(args: list) -> list | None:
    """Merge the geq0 atoms among the formulas args with identical
    coefficient vectors into the strongest, at the place of the first; None
    if two opposite bounds leave no integer."""
    lows: dict[tuple, int] = {}
    bounds = 0
    for a in args:
        if isinstance(a, Atom) and a.kind == GEQ0:
            bounds += 1
            key = a.term.coeffs
            lows[key] = min(lows.get(key, a.term.const), a.term.const)
    for key, c in lows.items():
        nkey = tuple((n, -v) for n, v in key)
        if nkey in lows and c + lows[nkey] < 0:
            return None
    if bounds == len(lows):
        return args  # no two bounds share a coefficient vector
    merged = []
    for a in args:
        if not (isinstance(a, Atom) and a.kind == GEQ0):
            merged.append(a)
        elif (c := lows.pop(a.term.coeffs, None)) is not None:
            merged.append(a if c == a.term.const else geq0(LinearTerm(a.term.coeffs, c)))
    return merged


# ---------------------------------------------------------------------------
# negation normal form

def nnf(f: Formula, negate: bool = False) -> Formula:
    """Push negations to literals; literals are atoms or Not(eq0)/Not(div)."""
    if isinstance(f, TrueF):
        return FALSE if negate else TRUE
    if isinstance(f, FalseF):
        return TRUE if negate else FALSE
    if isinstance(f, Atom):
        if not negate:
            return f
        if f.kind == GEQ0:
            return geq0(f.term.scale(-1) - 1)
        return NotF(f)
    if isinstance(f, NotF):
        return nnf(f.arg, not negate)
    if isinstance(f, AndF):
        parts = [nnf(a, negate) for a in f.args]
        return disj(parts) if negate else conj(parts)
    if isinstance(f, OrF):
        parts = [nnf(a, negate) for a in f.args]
        return conj(parts) if negate else disj(parts)
    if isinstance(f, (ExistsF, ForallF)):
        raise NotQuantifierFreeError("cell decomposition needs a quantifier-free formula")
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Cooper quantifier elimination

def _literals_with(f: Formula, var: str) -> Iterator[tuple[Atom, bool]]:
    """Yield (atom, negated) for literals mentioning var (NNF input)."""
    if isinstance(f, Atom):
        if f.term.coeff(var) != 0:
            yield (f, False)
    elif isinstance(f, NotF) and isinstance(f.arg, Atom):
        if f.arg.term.coeff(var) != 0:
            yield (f.arg, True)
    elif isinstance(f, (AndF, OrF)):
        for a in f.args:
            yield from _literals_with(a, var)


def _map_literals(f: Formula, fn) -> Formula:
    """Rebuild an NNF formula, transforming each literal through fn."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return fn(f, False)
    if isinstance(f, NotF) and isinstance(f.arg, Atom):
        return fn(f.arg, True)
    if isinstance(f, AndF):
        return conj(_map_literals(a, fn) for a in f.args)
    if isinstance(f, OrF):
        return disj(_map_literals(a, fn) for a in f.args)
    raise NotQuantifierFreeError("expected quantifier-free NNF")


def _eliminate_exists(var: str, body: Formula) -> Formula:
    """Cooper elimination of E var from a quantifier-free body."""
    body = simplify(nnf(body))
    if var not in free_variables(body):
        return body

    # 1. normalize coefficients of var to +-l, then set w = l*var
    l = 1
    for atom, _ in _literals_with(body, var):
        l = math.lcm(l, atom.term.coeff(var))

    def rescale(atom: Atom, negated: bool) -> Formula:
        c = atom.term.coeff(var)
        if c == 0:
            return neg(atom) if negated else atom
        m = l // abs(c)
        term = atom.term.scale(m)
        # replace m*c*var (= +-l * var) by a unit-coefficient occurrence
        coeffs = {n: v for n, v in term.coeffs if n != var}
        coeffs[var] = 1 if c > 0 else -1
        term = LinearTerm.make(coeffs, term.const)
        if atom.kind == DIV:
            new = Atom(DIV, term, atom.modulus * m)
        else:
            new = Atom(atom.kind, term)
        return neg(new) if negated else new

    body = _map_literals(body, rescale)
    if l > 1:
        body = conj([body, divides(l, LinearTerm.variable(var))])

    # 2. delta = lcm of divisibility moduli on var
    delta = 1
    for atom, _ in _literals_with(body, var):
        if atom.kind == DIV:
            delta = math.lcm(delta, atom.modulus)

    # 3. boundary sets. rest = term without var, so atom reads +-var + rest (kind) 0
    b_set: list[LinearTerm] = []
    a_set: list[LinearTerm] = []
    seen_b: set = set()
    seen_a: set = set()
    for atom, negated in _literals_with(body, var):
        c = atom.term.coeff(var)
        rest = atom.term.drop(var)
        if atom.kind == DIV:
            continue
        if atom.kind == GEQ0 and not negated:
            if c > 0:
                cand_b, cand_a = [rest.scale(-1) - 1], []
            else:
                cand_b, cand_a = [], [rest + 1]
        elif atom.kind == EQ0 and not negated:
            val = rest.scale(-1) if c > 0 else rest  # var = val
            cand_b, cand_a = [val - 1], [val + 1]
        else:  # negated EQ0
            val = rest.scale(-1) if c > 0 else rest
            cand_b, cand_a = [val], [val]
        for t in cand_b:
            if t not in seen_b:
                seen_b.add(t)
                b_set.append(t)
        for t in cand_a:
            if t not in seen_a:
                seen_a.add(t)
                a_set.append(t)

    use_lower = len(b_set) <= len(a_set)
    boundaries = b_set if use_lower else a_set
    size = delta * (len(boundaries) + 1)
    if size > EXPANSION_BUDGET:
        raise ExpansionBudgetError(
            f"eliminating {var} needs {size} disjuncts, over the budget of {EXPANSION_BUDGET}")

    def limit_literal(atom: Atom, negated: bool) -> Formula:
        c = atom.term.coeff(var)
        if c == 0 or atom.kind == DIV:
            return neg(atom) if negated else atom
        if atom.kind == EQ0:
            return TRUE if negated else FALSE
        # geq0: +-var + rest >= 0
        if use_lower:  # var -> -infinity
            return FALSE if c > 0 else TRUE
        return TRUE if c > 0 else FALSE

    limit_body = _map_literals(body, limit_literal)

    disjuncts: list[Formula] = []
    for j in range(1, delta + 1):
        jt = LinearTerm.constant(j if use_lower else -j)
        disjuncts.append(simplify(substitute(limit_body, var, jt)))
    for b in boundaries:
        for j in range(1, delta + 1):
            val = b + j if use_lower else b - j
            disjuncts.append(simplify(substitute(body, var, val)))
    return simplify(disj(disjuncts))


def qe(f: Formula) -> Formula:
    """Total quantifier elimination; output is equivalent and quantifier-free."""
    if isinstance(f, (TrueF, FalseF, Atom)):
        return simplify(f)
    if isinstance(f, NotF):
        return simplify(neg(qe(f.arg)))
    if isinstance(f, AndF):
        return simplify(conj(qe(a) for a in f.args))
    if isinstance(f, OrF):
        return simplify(disj(qe(a) for a in f.args))
    if isinstance(f, ExistsF):
        return _eliminate_exists(f.var, qe(f.body))
    if isinstance(f, ForallF):
        inner = qe(f.body)
        return simplify(neg(_eliminate_exists(f.var, simplify(neg(inner)))))
    raise TypeError(f"not a formula: {f!r}")


def is_satisfiable(f: Formula) -> bool:
    """Exact satisfiability over the integers via quantifier elimination.

    For library users with quantified or disjunctive formulas; no package
    module calls it, and its answers are not cached.  The engine's queries
    are conjunctions of atoms and go to atoms_satisfiable, and the oracle
    reads its answers off qe directly.
    """
    g = f
    for v in sorted(free_variables(f)):
        g = ExistsF(v, g)
    result = simplify(qe(g))
    if isinstance(result, TrueF):
        return True
    if isinstance(result, FalseF):
        return False
    raise AssertionError("qe of a sentence must be ground")


# ---------------------------------------------------------------------------
# integer feasibility of atom conjunctions
#
# The decision works on rows: a conjunction is a dict mapping
# (kind, coeffs, modulus) to const, where coeffs are sorted (name, int) pairs
# without zeros, as in LinearTerm.coeffs, and every row is in the one atom
# normal form of _add_row, which simplify_atom also returns.  An atom's row
# is worked out once and kept on the atom (_normal_row).

# Answers of atoms_satisfiable, keyed by the tuple of atoms.
_SAT_RESULTS: dict = {}
SAT_RESULTS_BOUND = 1 << 15
cache_tables(globals(), "_SAT_RESULTS")


def atoms_satisfiable(atoms: Sequence[Atom]) -> bool:
    """Whether a conjunction of atoms has an integer solution.

    Decided on the atoms' rows, without building a formula or calling qe:
    equalities are eliminated exactly, then one variable at a time is dropped
    when it is bounded on one side only, eliminated by exact Fourier-Motzkin
    when its lower (or its upper) bounds all have coefficient 1 (the exact
    shadow of Pugh's Omega test), or else branched on Cooper's test points,
    depth first.  Whenever every row left mentions one variable, at entry
    and after each step, the rows are decided one variable at a time
    instead (_separable_feasible); before a Cooper step, the rows that
    mention one variable are tested that way on their own, and each
    variable they pin to one value is substituted as an equality in place
    of the step.  Raises ExpansionBudgetError when one Cooper step counts
    more than EXPANSION_BUDGET disjuncts, as qe does; so the budget binds
    only on Cooper steps over coupled rows whose one-variable rows are
    feasible and pin no variable.
    """
    key = tuple(atoms)
    cached = _SAT_RESULTS.get(key)
    if cached is not None:
        return cached
    rows: dict = {}
    for a in key:
        simple, row, const = _normal_row(a)
        if row is None:
            if simple is FALSE:
                break
        elif not _merge_row(rows, row, const):
            break
    else:
        return remember(_SAT_RESULTS, key, _feasible(rows), SAT_RESULTS_BOUND)
    return remember(_SAT_RESULTS, key, False, SAT_RESULTS_BOUND)


def _normal_row(atom: Atom) -> tuple:
    """(simple, row, const): the atom's row key and constant in the normal
    form of _add_row, and simple, the atom that row prints as, or None when
    that is the atom itself; a true or false atom has no row and simple
    TRUE or FALSE.  Worked out on the first read and kept in the atom's
    _row slot, as HashSlot keeps a hash."""
    try:
        return atom._row
    except AttributeError:
        pass
    term = atom.term
    rows: dict = {}
    if not _add_row(rows, atom.kind, term.coeffs, term.const, atom.modulus):
        normal = (FALSE, None, 0)
    elif not rows:
        normal = (TRUE, None, 0)
    else:
        ((kind, coeffs, modulus), const), = rows.items()
        simple = Atom(kind, LinearTerm(coeffs, const), modulus)
        # an atom already in normal form keeps no reference to itself
        normal = (None if simple == atom else simple, (kind, coeffs, modulus), const)
    object.__setattr__(atom, "_row", normal)
    return normal


def divisibility_residue(atom: Atom) -> tuple[tuple, int] | None:
    """(key, residue) of a divisibility atom's normal row, None for any other
    atom and for a true or false one: two divisibilities with one key and
    different residues cannot both hold, as _merge_row finds."""
    _, row, const = _normal_row(atom)
    if row is None or row[0] != DIV:
        return None
    return row, const


def _add_row(rows: dict, kind: str, coeffs: tuple, const: int, modulus: int) -> bool:
    """Add an atom to the rows in normal form; False when the conjunction is
    now infeasible.  The normal form divides out the gcd of the coefficients
    (and of a divisibility modulus), reduces a divisibility modulo its
    modulus and makes an equality's first coefficient positive.  A true atom
    adds nothing; the row is merged into the others by _merge_row."""
    if not coeffs:
        if kind == GEQ0:
            return const >= 0
        if kind == EQ0:
            return const == 0
        return const % modulus == 0
    g = 0
    for _, c in coeffs:
        g = math.gcd(g, c)
    if kind == DIV:
        g = math.gcd(g, modulus)
        if g > 1:
            if const % g != 0:
                return False
            modulus //= g
            if modulus == 1:
                return True
            coeffs = tuple((n, c // g) for n, c in coeffs)
            const //= g
        # the coefficients are now coprime to modulus >= 2: one survives
        coeffs = tuple((n, c % modulus) for n, c in coeffs if c % modulus)
        const %= modulus
    elif g > 1:
        if kind == EQ0 and const % g != 0:
            return False
        coeffs = tuple((n, c // g) for n, c in coeffs)
        const //= g  # floor division: g*t' + c >= 0 iff t' >= ceil(-c/g)
    if kind == EQ0 and coeffs[0][1] < 0:
        coeffs = tuple((n, -c) for n, c in coeffs)
        const = -const
    return _merge_row(rows, (kind, coeffs, modulus), const)


def _merge_row(rows: dict, key: tuple, const: int) -> bool:
    """Add one normal row to the rows; False when the conjunction is now
    infeasible.  Of two inequalities with one coefficient vector only the
    stronger is kept."""
    old = rows.get(key)
    if old is None or (key[0] == GEQ0 and const < old):
        rows[key] = const
        return True
    # a second equality or divisibility on the same reduced term differs in
    # its constant, so the two cannot both hold
    return key[0] == GEQ0 or old == const


def _substituted(coeffs: tuple, const: int, var: str, num: tuple, num_const: int,
                 den: int) -> tuple[tuple, int]:
    """den * (coeffs . x + const) with var := (num . x + num_const) / den."""
    d: dict[str, int] = {}
    c = 0
    for n, k in coeffs:
        if n == var:
            c = k
        else:
            d[n] = k * den
    for n, k in num:
        d[n] = d.get(n, 0) + c * k
    return tuple(sorted((n, k) for n, k in d.items() if k)), const * den + c * num_const


def _feasible(rows: dict) -> bool:
    """Integer feasibility of normalized rows (see _add_row); consumes rows."""
    if not _eliminate_equalities(rows):
        return False
    while rows:
        if all(len(key[1]) == 1 for key in rows):
            return _separable_feasible(rows)
        # each variable's rows: lower bounds, upper bounds, divisibilities
        roles: dict[str, tuple[list, list, list]] = {}
        for key, const in rows.items():
            for n, c in key[1]:
                lists = roles.get(n)
                if lists is None:
                    lists = roles[n] = ([], [], [])
                lists[2 if key[0] == DIV else 0 if c > 0 else 1].append((c, key, const))
        best = None
        for var in sorted(roles):
            lows, ups, divs = roles[var]
            if not divs and (not lows or not ups):
                choice = (0, "drop")
            elif not divs and (all(c == 1 for c, _, _ in lows)
                               or all(c == -1 for c, _, _ in ups)):
                choice = (1, "fm")
            else:
                choice = (_cooper_step(lows, ups, divs)[2], "cooper")
            if best is None or choice[0] < best[0]:
                best = (*choice, var)
                if choice[0] == 0:
                    break
        _, step, var = best
        lows, ups, divs = roles[var]
        if step == "cooper":
            # a contradiction among the one-variable rows needs no branching,
            # and a variable they pin to one value is substituted instead
            single = {key: const for key, const in rows.items() if len(key[1]) == 1}
            pinned: dict[str, int] = {}
            if not _separable_feasible(single, pinned):
                return False
            if not pinned:
                return _cooper_branches(rows, var, lows, ups, divs)
            for name, value in pinned.items():
                _add_row(rows, EQ0, ((name, 1),), -value, 0)
            if not _eliminate_equalities(rows):
                return False
            continue
        for _, key, _ in lows + ups:
            del rows[key]
        if step == "drop":
            continue
        # exact Fourier-Motzkin: when the lower bounds x >= -s all have
        # coefficient 1, the largest of them is an integer and a solution
        # exactly when every upper bound admits it, so each lower bound is
        # substituted into each upper bound; symmetrically for unit uppers
        units, others = (lows, ups) if all(c == 1 for c, _, _ in lows) else (ups, lows)
        for c, unit, unit_const in units:
            num = tuple((n, -c * k) for n, k in unit[1] if n != var)
            for _, (_, coeffs, _), const in others:
                coeffs, const = _substituted(coeffs, const, var, num, -c * unit_const, 1)
                if not _add_row(rows, GEQ0, coeffs, const, 0):
                    return False
    return True


def _separable_feasible(rows: dict, pinned: dict[str, int] | None = None) -> bool:
    """Integer feasibility of rows that each mention one variable, with no
    equality among them, decided one variable at a time: its inequalities
    give an interval [low, high], its divisibilities one residue class
    r (mod m) by the Chinese remainder theorem, and it has a value when the
    first point of that class at or above low is at most high.  When they
    are feasible, each variable with exactly one value is put in pinned
    with that value, if pinned is given."""
    spans: dict[str, list] = {}  # variable -> [low, high, r, m]
    for (kind, ((var, c),), modulus), const in rows.items():
        span = spans.get(var)
        if span is None:
            span = spans[var] = [None, None, 0, 1]
        if kind == DIV:
            # c*var + const = 0 (mod modulus)
            residue = crt(span[2], span[3], -const, modulus, c)
            if residue is None:
                return False
            span[2], span[3] = residue
        elif c > 0:
            low = -(const // c)  # var >= ceil(-const/c)
            if span[0] is None or low > span[0]:
                span[0] = low
        else:
            high = const // -c  # var <= floor(const/-c)
            if span[1] is None or high < span[1]:
                span[1] = high
    for var, (low, high, r, m) in spans.items():
        if low is None or high is None:
            continue
        first = low + (r - low) % m
        if first > high:
            return False
        if first + m > high and pinned is not None:
            pinned[var] = first
    return True


def _eliminate_equalities(rows: dict) -> bool:
    """Solve each equality for its variable of smallest coefficient,
    x = num/den, and substitute it with den | num, as semilinear's
    _substitute_value does; False when the rows became infeasible."""
    while True:
        best = None
        for key in rows:
            if key[0] == EQ0:
                for name, c in key[1]:
                    if best is None or abs(c) < abs(best[2]):
                        best = (key, name, c)
        if best is None:
            return True
        key, var, c = best
        const = rows.pop(key)
        sign = 1 if c > 0 else -1
        num = tuple((n, -sign * k) for n, k in key[1] if n != var)
        num_const, den = -sign * const, abs(c)
        old = dict(rows)
        rows.clear()
        if den > 1 and not _add_row(rows, DIV, num, num_const, den):
            return False
        for (kind, coeffs, modulus), const in old.items():
            if any(n == var for n, _ in coeffs):
                coeffs, const = _substituted(coeffs, const, var, num, num_const, den)
                if kind == DIV:
                    modulus *= den
            if not _add_row(rows, kind, coeffs, const, modulus):
                return False


def _cooper_step(lows: list, ups: list, divs: list) -> tuple[int, int, int]:
    """(l, delta, size) of one Cooper step on a variable: l is the lcm of its
    coefficients, delta the lcm of the moduli once it is scaled to x = l*var,
    and size = delta * (boundary points + 1) as _eliminate_exists counts it
    for its budget."""
    l = 1
    for c, _, _ in lows + ups + divs:
        l = math.lcm(l, abs(c))
    delta = l
    for c, key, _ in divs:
        delta = math.lcm(delta, key[2] * (l // abs(c)))
    return l, delta, delta * (min(len(lows), len(ups)) + 1)


def _cooper_branches(rows: dict, var: str, lows: list, ups: list, divs: list) -> bool:
    """Whether some Cooper test point of var leaves the rows feasible.

    The rows of var are scaled so that var has coefficient +-1 and stands for
    x = l*var, with l | x.  On the side with fewer bounds, x runs over
    bound +- j for j in 1..delta; with no bound on that side, over one
    residue system modulo delta, where every inequality on x holds.
    """
    l, delta, size = _cooper_step(lows, ups, divs)
    if size > EXPANSION_BUDGET:
        raise ExpansionBudgetError(
            f"eliminating {var} needs {size} disjuncts, over the budget of {EXPANSION_BUDGET}")
    scaled = []
    for c, key, const in lows + ups + divs:
        kind, coeffs, modulus = key
        m = l // abs(c)
        coeffs = tuple((n, (1 if k > 0 else -1) if n == var else k * m) for n, k in coeffs)
        scaled.append((kind, coeffs, const * m, modulus * m))
        del rows[key]
    if l > 1:
        scaled.append((DIV, ((var, 1),), 0, l))
    use_lows = len(lows) <= len(ups)
    bounds = scaled[:len(lows)] if use_lows else scaled[len(lows):len(lows) + len(ups)]
    if bounds:
        # e*x + rest >= 0 with e = +-1 gives x = -e*rest + e*(j - 1), j in 1..delta
        e = 1 if use_lows else -1
        points = [(tuple((n, -e * k) for n, k in coeffs if n != var), -e * const + e * j)
                  for _, coeffs, const, _ in bounds for j in range(delta)]
    else:
        scaled = [row for row in scaled if row[0] == DIV]
        points = [((), j) for j in range(delta)]
    for num, num_const in points:
        branch = dict(rows)
        if all(_add_row(branch, kind, *_substituted(coeffs, const, var, num, num_const, 1),
                        modulus)
               for kind, coeffs, const, modulus in scaled) and _feasible(branch):
            return True
    return False


# ---------------------------------------------------------------------------
# grid evaluation (vectorized; the brute-force oracle's only formula evaluator)

def evaluate_on_grid(f: Formula, axes: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a formula, quantifiers included, on a cartesian grid.

    axes maps each variable of f, free or bound, to a 1-D integer array.  A
    quantifier ranges over the array of its variable and reduces that axis
    with any or all, so every binder of a name shares one axis, and a name
    may not occur both free and bound in f (ScopeError).  The result is a
    boolean array with one axis per name of axes that f does not bind, in
    the mapping order.  Terms are summed as exact Python integers, so no
    coefficient can overflow.
    """
    import numpy as np

    names = list(axes.keys())
    grids = {}
    for i, n in enumerate(names):
        view = [1] * len(names)
        view[i] = len(axes[n])
        grids[n] = np.asarray(axes[n], dtype=np.int64).astype(object).reshape(view)
    ones = (1,) * len(names)
    bound: set[str] = set()

    # every array has one axis per name, of length 1 where it does not vary
    def rec(g: Formula) -> np.ndarray:
        if isinstance(g, (TrueF, FalseF)):
            return np.full(ones, isinstance(g, TrueF))
        if isinstance(g, Atom):
            total = np.full(ones, g.term.const, dtype=object)
            for n, c in g.term.coeffs:
                if n not in grids:
                    raise MissingAssignmentError(n)
                total = total + c * grids[n]
            if g.kind == GEQ0:
                out = total >= 0
            elif g.kind == EQ0:
                out = total == 0
            else:
                out = (total % g.modulus) == 0
            return np.asarray(out, dtype=bool)
        if isinstance(g, NotF):
            return ~rec(g.arg)
        if isinstance(g, AndF):
            out = rec(g.args[0])
            for a in g.args[1:]:
                out = out & rec(a)
            return out
        if isinstance(g, OrF):
            out = rec(g.args[0])
            for a in g.args[1:]:
                out = out | rec(a)
            return out
        if isinstance(g, (ExistsF, ForallF)):
            if g.var not in grids:
                raise MissingAssignmentError(g.var)
            bound.add(g.var)
            inner = rec(g.body)
            reduce = inner.any if isinstance(g, ExistsF) else inner.all
            return reduce(axis=names.index(g.var), keepdims=True)
        raise TypeError(f"not a formula: {g!r}")

    table = rec(f)
    if clash := bound & free_variables(f):
        raise ScopeError(f"variable {min(clash)!r} is both free and bound")
    shape = tuple(1 if n in bound else len(axes[n]) for n in names)
    return np.array(np.broadcast_to(table, shape)).reshape(
        tuple(len(axes[n]) for n in names if n not in bound))


def equivalent_on_box(f, g, bound: int) -> bool:
    """Exhaustively compare two quantifier-free formulas on [-bound, bound]^n.

    Either argument may also be a table produced by the brute-force oracle
    (anything with .variables and .on_grid)."""
    import numpy as np

    fvars = set()
    for h in (f, g):
        if isinstance(h, Formula):
            if not is_quantifier_free(h):
                raise NotQuantifierFreeError("equivalent_on_box needs quantifier-free input")
            fvars |= set(free_variables(h))
        else:
            fvars |= set(h.variables)
    names = sorted(fvars)
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    axes = {n: values for n in names}

    def table(h) -> np.ndarray:
        if isinstance(h, Formula):
            return evaluate_on_grid(h, axes)
        return h.on_grid(axes)

    return bool(np.array_equal(table(f), table(g)))
