import types

import drinfeld2


def test_all_is_sorted_unique_and_resolves():
    names = drinfeld2.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(drinfeld2, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from drinfeld2 import *", namespace)
    assert set(drinfeld2.__all__) <= set(namespace)


def test_all_matches_the_public_namespace():
    # a name bound in the package is exported, and an exported name is bound
    bound = {
        name
        for name, value in vars(drinfeld2).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(drinfeld2.__all__) == bound
