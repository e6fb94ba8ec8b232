import sys

import pytest

from drinfeld2 import charpoly, ext_make, field_make
from oracles import all_modules

SWEEP_PARAMS = [(3, 1), (3, 2), (5, 1), (5, 2)]


@pytest.fixture(scope="session")
def sweep():
    """Exhaustive (module, charpoly) lists for (q, n) in {3,5} x {1,2}.

    Built once and shared; the q=5, n=2 block alone has 15000 modules.
    """
    out = {}
    for q, n in SWEEP_PARAMS:
        base = field_make(q, 1)
        ext = ext_make(base, n)
        out[(q, n)] = [(dm, charpoly(dm)) for dm in all_modules(ext)]
    return out


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(owner, name) wraps owner.name for the test and returns
    the list that gets each call's positional arguments.  Every drinfeld2
    module attribute bound to the same function is wrapped too, as the
    benchmark's tracer does, so a count does not depend on which modules
    import the function by name."""

    def record(owner, name):
        fn = getattr(owner, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name == "drinfeld2" or module_name.startswith("drinfeld2."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        return calls

    return record
