import sys

import pytest

from padicmeasure import measure, presburger


@pytest.fixture(autouse=True)
def empty_closed_forms(monkeypatch):
    """Every test starts from an empty table of closed forms, so what it
    checks of sum_closed_form does not depend on the tests run before it."""
    monkeypatch.setattr(measure, "_CLOSED_FORMS", {})


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
