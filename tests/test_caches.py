"""The package's cache policy: five module-level tables, each with a bound,
oldest entry evicted first, all emptied by clear_caches()."""

import pytest

from padicmeasure import clear_caches, measure, presburger, semilinear
from padicmeasure.algebra import remember
from padicmeasure.measure import PAdicContext, Weight, sum_closed_form
from padicmeasure.presburger import TRUE, LinearTerm, atoms_satisfiable, geq0, parse
from padicmeasure.semilinear import disjoint_conjunctions, triangulate, to_cells

CTX = PAdicContext(2)


def _atom(k):
    return geq0(LinearTerm.make({"x": 1}, k))


def _sat(k):
    atoms_satisfiable([_atom(k)])


def _split(k):
    # one lambda variable with two fresh bounds: one new split key each time
    triangulate(to_cells(parse(f"l >= {k} /\\ l <= s + {k}"), ["l"], ["s"])[0])


def _decompose(k):
    disjoint_conjunctions(parse(f"s >= {k} \\/ s <= -{k}"))


def _closed_form(k):
    sum_closed_form(parse(f"0 <= l /\\ l <= {k}"), Weight.constant(0), TRUE, CTX, ())


# (module, table, bound, a call that adds the k-th distinct key)
TABLES = [
    (presburger, "_ATOMS", "ATOMS_BOUND", _atom),
    (presburger, "_SAT_RESULTS", "SAT_RESULTS_BOUND", _sat),
    (semilinear, "_SPLITS", "SPLITS_BOUND", _split),
    (semilinear, "_DECOMPOSITIONS", "DECOMPOSITIONS_BOUND", _decompose),
    (measure, "_CLOSED_FORMS", "CLOSED_FORMS_BOUND", _closed_form),
]
IDS = [table for _, table, _, _ in TABLES]


@pytest.mark.parametrize("module, table, bound, flood", TABLES, ids=IDS)
def test_tables_stay_within_their_bound_oldest_out_first(monkeypatch, module, table, bound,
                                                         flood):
    monkeypatch.setattr(module, bound, 3)
    order = []  # every key the table has held, in the order it arrived
    for k in range(1, 12):
        flood(k)
        entries = getattr(module, table)
        assert len(entries) <= 3
        order.extend(key for key in entries if key not in order)
    entries = getattr(module, table)
    assert len(order) > 3
    # the newest keys stay, in the order they came, so the oldest went first
    assert list(entries) == order[-len(entries):]


def test_a_full_table_drops_its_oldest_eighth():
    table = {}
    for k in range(16):
        remember(table, k, k, 16)
    assert remember(table, 16, "new", 16) == "new"
    assert list(table) == list(range(2, 17))
    # a bound below the size drops the table to it first
    remember(table, 17, 17, 4)
    assert list(table) == [14, 15, 16, 17]


def test_clear_caches_empties_every_table():
    for _, _, _, flood in TABLES:
        flood(1)
    tables = [getattr(module, table) for module, table, _, _ in TABLES]
    assert all(tables)
    clear_caches()
    assert not any(tables)


def test_clear_caches_empties_the_tables_the_modules_hold_now(monkeypatch):
    # tables are read through their module globals, so one put in place of
    # another is the one that fills and empties
    mine = {}
    monkeypatch.setattr(presburger, "_SAT_RESULTS", mine)
    _sat(1)
    assert mine
    clear_caches()
    assert not mine


def test_a_split_that_raises_leaves_no_entry(monkeypatch):
    monkeypatch.setattr(semilinear, "SPLIT_BUDGET", 5)
    cell = to_cells(parse("0 <= l /\\ l <= s /\\ 7 | l + s"), ["l"], ["s"])[0]
    for _ in range(2):
        with pytest.raises(presburger.ExpansionBudgetError):
            triangulate(cell)
        assert not semilinear._SPLITS
