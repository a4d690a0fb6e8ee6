import sys

import pytest

from padicmeasure import clear_caches, presburger


@pytest.fixture(autouse=True)
def empty_caches():
    """Every test starts from empty tables (atoms, satisfiability answers,
    variable splits, decompositions and closed forms), so what it checks,
    and what spies see, does not depend on the tests run before it."""
    clear_caches()


@pytest.fixture
def sat_queries(monkeypatch):
    """Every query passed to the two satisfiability entry points and to
    quantifier elimination during the test: sat_queries["is_satisfiable"] and
    sat_queries["qe"] hold the formulas, sat_queries["atoms_satisfiable"] the
    atom sequences.

    The package imports them by name, so each spy replaces its function in
    every padicmeasure module that binds it, not only in presburger (where
    the qe spy also sees qe's recursive calls).
    """
    asked = {"is_satisfiable": [], "atoms_satisfiable": [], "qe": []}
    for entry, queries in asked.items():
        original = getattr(presburger, entry)

        def spy(arg, original=original, queries=queries):
            queries.append(arg)
            return original(arg)

        for name, module in list(sys.modules.items()):
            if name.startswith("padicmeasure") and getattr(module, entry, None) is original:
                monkeypatch.setattr(module, entry, spy)
    return asked
