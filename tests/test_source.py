import ast
import os
import subprocess
import sys
from pathlib import Path

import padicmeasure

PACKAGE = Path(padicmeasure.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_package_imports_sit_at_module_level():
    # package modules are imported once, in each module's import list;
    # numpy alone is imported lazily inside functions, to keep start-up short
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else ["padicmeasure"]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.split(".")[0] == "padicmeasure" for m in modules):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_package_modules_import_no_private_names_from_each_other():
    # a name another package module needs is public; underscore names stay
    # inside the module that defines them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "padicmeasure":
                continue
            found.extend(f"{path.name}:{node.lineno} {alias.name}"
                         for alias in node.names if alias.name.startswith("_"))
    assert not found, found


def test_only_algebra_builds_polynomials_from_raw_terms():
    # the raw constructor skips canonicalization (merged monomials, no zero
    # coefficients, ints where integral, one order), so other modules build
    # polynomials through Polynomial.constant, Polynomial.combine and the rest
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "algebra.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "Polynomial" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, found


def test_oracle_keeps_its_own_satisfiability_path():
    # the oracle checks the engine, so it decides its probes with Cooper
    # elimination and does not share the engine's conjunctive feasibility
    # test; it reads every answer off qe, so it needs no is_satisfiable either
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    names = {"atoms_satisfiable", "is_satisfiable"}
    found = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom)
            and any(alias.name in names for alias in node.names))
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]
    assert not found, found


def test_package_evaluates_formulas_on_grids_in_one_function():
    # evaluate_on_grid is the one numpy evaluator of formulas, in exact
    # arithmetic; a second one, such as the int64 tables brute_force_qe once
    # built, can wrap around and disagree with it on the same formula
    users = {
        f"{path.name} {top.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and any(isinstance(node, ast.Attribute) and node.attr == "term"
                for node in ast.walk(top))
        and any(isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np" for node in ast.walk(top))
    }
    assert users == {"presburger.py evaluate_on_grid"}, users


def test_ring_measures_signed_generators_in_one_function():
    # measure_function, decide_equal and certificate replay share one path
    # from signed generators to a measure; this keeps a second difference
    # path from growing back in ring.py, which reaches the canonical form
    # of exponential polynomials only through _signed_measure
    tree = ast.parse((PACKAGE / "ring.py").read_text(encoding="utf-8"))
    users: dict[str, set[str]] = {"make_exp_polynomial": set(), "_generator_terms": set()}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in users:
                users[node.id].add(where)
    assert users == {
        "make_exp_polynomial": {"_signed_measure"}, "_generator_terms": {"_signed_measure"},
    }, users


def test_ring_sums_and_builds_exp_polynomials_in_one_function_each():
    # _signed_measure nets a difference per guard and exponent and hands the
    # nonzero sums to make_exp_polynomial, and _value_at is the one place
    # ring.py builds an ExpPolynomial itself; this keeps a second zero test
    # from growing back beside the canonical form
    tree = ast.parse((PACKAGE / "ring.py").read_text(encoding="utf-8"))
    users: dict[str, set[str]] = {"Polynomial.combine": set(), "ExpPolynomial": set()}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "ExpPolynomial":
                users["ExpPolynomial"].add(where)
            elif (isinstance(func, ast.Attribute) and func.attr == "combine"
                  and isinstance(func.value, ast.Name) and func.value.id == "Polynomial"):
                users["Polynomial.combine"].add(where)
    assert users == {
        "Polynomial.combine": {"_signed_measure"}, "ExpPolynomial": {"_value_at"},
    }, users


def test_package_checks_types_against_no_typing_alias():
    # isinstance against an alias from typing, such as typing.Mapping, goes
    # through typing's __subclasscheck__ on every call (27,242 times in one
    # run of the certify benchmark); the class from collections.abc is checked
    # directly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases, modules = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "typing":
                aliases.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name
                               for alias in node.names if alias.name == "typing")
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and len(node.args) >= 2
                    and getattr(node.func, "id", None) in ("isinstance", "issubclass", "_typed")):
                continue
            kind = node.args[1]
            for name in (kind.elts if isinstance(kind, ast.Tuple) else [kind]):
                if ((isinstance(name, ast.Name) and name.id in aliases)
                        or (isinstance(name, ast.Attribute) and isinstance(name.value, ast.Name)
                            and name.value.id in modules)):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(name)}")
    assert not found, found


_CACHE_DECORATORS = {"lru_cache", "cache"}
_DICT_FACTORIES = {"dict", "OrderedDict", "defaultdict", "WeakKeyDictionary",
                   "WeakValueDictionary"}


_TABLES = {
    ("presburger.py", "_ATOMS"),
    ("presburger.py", "_SAT_RESULTS"),
    ("semilinear.py", "_SPLITS"),
    ("semilinear.py", "_DECOMPOSITIONS"),
    ("measure.py", "_CLOSED_FORMS"),
}


def test_package_keeps_its_caches_in_five_bounded_named_dicts():
    # one explicit cache policy: these five module-level dicts are the only
    # tables that outlive a call.  Each has a bound beside it, named after
    # it, and is named to cache_tables, so clear_caches() empties it;
    # functools memoization would add unbounded caches that no one can see
    # or clear
    found, tables, bounds, registered = [], set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found.extend(f"{path.name}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name in _CACHE_DECORATORS)
            elif (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.name}:{node.lineno} functools.{node.attr}")
        for node in tree.body:
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "cache_tables"):
                registered.update((path.name, arg.value) for arg in node.value.args[1:])
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {ast.unparse(t) for t in targets}
            bounds.update((path.name, name) for name in names if name.endswith("_BOUND"))
            value = node.value
            empty_dict = isinstance(value, ast.Dict) and not value.keys
            factory = isinstance(value, ast.Call) and (
                getattr(value.func, "id", None) in _DICT_FACTORIES
                or getattr(value.func, "attr", None) in _DICT_FACTORIES)
            if empty_dict or factory:
                tables.update((path.name, name) for name in names)
    assert not found, found
    assert tables == _TABLES, tables
    assert registered == _TABLES, registered
    assert {(path, f"{name[1:]}_BOUND") for path, name in _TABLES} <= bounds, bounds


def test_presburger_normalizes_atoms_in_one_function():
    # simplify_atom reads its normal form off _add_row, so the gcd reduction
    # of atoms is written once and a second atom normal form cannot grow back
    tree = ast.parse((PACKAGE / "presburger.py").read_text(encoding="utf-8"))
    users = {
        top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "gcd"
    }
    assert users == {"_add_row"}, users


def test_package_regexes_match_ascii_digits_only():
    # \d also matches non-ASCII digits, which int() then reads as numbers
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
        and node.args and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str) and "\\d" in node.args[0].value
    ]
    assert not found, found


def test_package_walks_towers_in_two_functions():
    # counting and the measure layer reach towers through towers_in_domain,
    # the zero test through rectilinearize; a third walker of the towers
    # would be a second decomposition path to keep in step with the first
    callers = {
        f"{path.name} {top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else '<module>'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and "triangulate" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"semilinear.py towers_in_domain", "semilinear.py rectilinearize"}, callers


def test_package_imports_no_dataclasses():
    # the value classes write their methods out in source, so importing the
    # package compiles no generated code (see algebra.Value)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "dataclasses")
        or (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names))
    ]
    assert not found, found


def test_values_compare_and_hash_in_one_place():
    # Value reads each class's fields through one getter for equality and
    # hash, and HashSlot adds the identity check and the kept hash; a class
    # that writes out its own __eq__ or __hash__ would be a second copy of
    # that meaning to keep in step with the first
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {node.name}
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = {ast.unparse(t) for t in targets}
                else:
                    continue
                found.extend(f"{path.name} {cls.name}.{name}"
                             for name in sorted(names & {"__eq__", "__hash__"}))
    assert found == [
        "algebra.py Value.__eq__", "algebra.py Value.__hash__",
        "algebra.py HashSlot.__eq__", "algebra.py HashSlot.__hash__",
    ], found


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # every padic-measure command pays for what importing the CLI imports;
    # dataclasses, which also imports inspect, took most of it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, padicmeasure.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_atoms_are_formula_nodes_with_no_wrapper():
    # an Atom is itself the formula leaf: no node wraps one, so nothing in
    # the package reads an attribute named atom, and the formula node
    # classes are exactly these eight
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "atom"
    ]
    assert not reads, reads
    classes = [
        (path.name, node.name, {getattr(base, "id", None) for base in node.bases})
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    nodes = {("presburger.py", "Formula")}
    while True:
        names = {name for _, name in nodes}
        grown = nodes | {(path, name) for path, name, bases in classes if bases & names}
        if grown == nodes:
            break
        nodes = grown
    assert nodes - {("presburger.py", "Formula")} == {
        ("presburger.py", name)
        for name in ("TrueF", "FalseF", "Atom", "NotF", "AndF", "OrF", "ExistsF", "ForallF")
    }, nodes


def _mentions_guard(node: ast.AST, tainted: set[str]) -> bool:
    return any((isinstance(n, ast.Attribute) and n.attr == "guard")
               or (isinstance(n, ast.Name) and n.id in tainted) for n in ast.walk(node))


def _guard_names(func: ast.FunctionDef) -> set[str]:
    """The names a function binds to something read off a `.guard`: assigned
    or iterated from it, or a container whose method is handed one."""
    tainted: set[str] = set()
    while True:
        before = len(tainted)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and _mentions_guard(node.value, tainted):
                    tainted.update(n.id for t in targets for n in ast.walk(t)
                                   if isinstance(n, ast.Name))
            elif isinstance(node, (ast.For, ast.comprehension)):
                if _mentions_guard(node.iter, tainted):
                    tainted.update(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and any(_mentions_guard(a, tainted) for a in node.args)):
                tainted.add(node.func.value.id)
        if len(tainted) == before:
            return tainted


def test_package_cuts_no_guard_back_into_pieces():
    # an ExpTerm's or a tower's guard is already one conjunction of atoms;
    # handing it (or a formula built from it) to to_cells or
    # disjoint_conjunctions would make the round trip from atoms to a
    # formula and back that guards no longer take
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            tainted = _guard_names(func)
            found.extend(
                f"{path.name}:{node.lineno}" for node in ast.walk(func)
                if isinstance(node, ast.Call) and node.args
                and getattr(node.func, "id", None) in ("to_cells", "disjoint_conjunctions")
                and _mentions_guard(node.args[0], tainted))
    assert not found, found


def test_package_reads_power_sum_tables_in_one_function():
    # sum_over_tower sums points and geometric levels on exact scalars and
    # hands a flat range to _sum_level; a flat range, there or in a point
    # count, is summed by _progression_sums and a geometric one by
    # _sum_level.  A second reader of the power-sum tables would be a
    # second summation path
    callers: dict[str, set[str]] = {"bounded_power_sums": set(), "faulhaber": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                for name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    if name in callers:
                        callers[name].add(f"{path.name} {where}")
    assert callers == {
        "bounded_power_sums": {"semilinear.py _sum_level"},
        "faulhaber": {"semilinear.py _progression_sums"},
    }, callers


def test_package_peels_and_searches_variable_orders_in_one_function():
    # normalize_to_basic peels each tower once, in _peel, inside the one
    # variable-order search that the zero test uses too; a second peel or
    # a second search loop would be a second path to keep in step.  A cell
    # carries its resolution order, so no function takes an order beside it
    callers: dict[str, set[str]] = {"_peel_step": set(), "variable_orders": set()}
    order_params = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    for name in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None)):
                        if name in callers:
                            callers[name].add(f"{path.name} {where}")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    order_params.extend(
                        f"{path.name}:{node.lineno}"
                        for arg in args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]
                        if arg is not None and arg.arg == "order")
    assert callers == {
        "_peel_step": {"ring.py _peel"},
        "variable_orders": {"semilinear.py in_first_order"},
    }, callers
    assert not order_params, order_params


def test_package_builds_powers_of_p_in_one_function():
    # algebra.power_fraction refuses a power past LEVEL_BITS before building
    # it; a `**` or two-argument pow on p elsewhere would build an unbounded
    # power, as huge weights and --at points once did until memory ran out
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = node.left
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
                  and len(node.args) == 2):
                base = node.args[0]
            else:
                continue
            if (isinstance(base, ast.Call) and getattr(base.func, "id", None) == "Fraction"
                    and len(base.args) == 1):
                base = base.args[0]
            if getattr(base, "id", None) == "p" or getattr(base, "attr", None) == "p":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_weight_integrality_is_checked_in_one_function():
    # semilinear.level_increment states the rule for a tower's levels, and
    # every walker reads each increment through it; checked_towers tests the
    # base point only.  A second raise of the increment message, or a walk
    # over the levels where the base point is tested, would be a second
    # reading of the rule, and the readings once disagreed.  So would a
    # test of the summed terms' exponents, which the base point and the
    # increments already decide
    raisers = set()
    loops = []
    base_checks = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "_require_integral_on"):
                    base_checks.add(f"{path.name} {func.name}")
                elif (isinstance(node, ast.Raise) and node.exc is not None
                        and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                                and "increment" in c.value for c in ast.walk(node.exc))):
                    raisers.add(f"{path.name} {func.name}")
                elif (func.name in ("checked_towers", "_check_tower_weight")
                      and isinstance(node, (ast.For, ast.comprehension))
                      and any(isinstance(n, ast.Attribute) and n.attr == "levels"
                              for n in ast.walk(node.iter))):
                    loops.append(f"{path.name}:{node.lineno}")
    assert raisers == {"semilinear.py level_increment"}, raisers
    assert not loops, loops
    assert base_checks == {"measure.py checked_towers"}, base_checks


def test_package_solves_congruences_in_one_function():
    # algebra.crt combines congruences; the congruence split of triangulation,
    # the alignment split and the separable step of atoms_satisfiable all
    # call it.  A modular inverse elsewhere would be a second solver to keep
    # in step, as semilinear's own _crt once was.  ac_level inverts a unit
    # modulo p^level and combines no congruences
    inverters = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
                        and len(node.args) == 3 and ast.unparse(node.args[1]) == "-1"):
                    inverters.add(f"{path.name} {where}")
    assert inverters == {"algebra.py crt", "measure.py ac_level"}, inverters
