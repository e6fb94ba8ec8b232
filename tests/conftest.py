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
