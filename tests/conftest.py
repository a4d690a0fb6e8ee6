import sys

import pytest

from padicmeasure import presburger


@pytest.fixture
def sat_queries(monkeypatch):
    """Every formula passed to is_satisfiable during the test.

    The package imports is_satisfiable by name, so the spy replaces it in
    every padicmeasure module that binds it, not only in presburger.
    """
    asked = []
    original = presburger.is_satisfiable

    def spy(f):
        asked.append(f)
        return original(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("padicmeasure") and getattr(module, "is_satisfiable", None) is original:
            monkeypatch.setattr(module, "is_satisfiable", spy)
    return asked
