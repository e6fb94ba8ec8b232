import itertools
import json
import random

import pytest

from drinfeld2 import (
    DrinfeldModule,
    FieldError,
    OrePoly,
    Poly,
    RankError,
    ext_make,
    field_make,
    linalg,
    minimal_polynomial,
)
from drinfeld2 import ff
from oracles import (
    all_modules,
    product_minimal_polynomial,
    twist_constant,
    twist_tau,
)

F3 = field_make(3, 1)
EXT1 = ext_make(F3, 1)
EXT9 = ext_make(F3, 2)


def oracle_minimal_polynomial(ext, x):
    """Least k with 1, x, ..., x^k linearly dependent over F_q, found by
    Gaussian elimination on coordinate vectors."""
    base = ext.base
    powers = [ext.one]
    for _ in range(ext.degree):
        powers.append(ext.mul(powers[-1], x))
    cols = [ext.coords(p) for p in powers]
    for k in range(1, ext.degree + 1):
        rows = [[cols[j][i] for j in range(k)] for i in range(ext.degree)]
        try:
            sol = linalg.solve(base, rows, list(cols[k]))
        except linalg.InconsistentSystem:
            continue
        # x^k = sum sol[j] x^j  =>  minimal polynomial T^k - sum sol[j] T^j
        return Poly(base, [base.neg(c) for c in sol] + [base.one])
    raise AssertionError("element has no minimal polynomial")


def test_minimal_polynomial_matches_linear_solve_oracle():
    for ext in (ext_make(F3, 4), ext_make(field_make(3, 2), 2)):
        for x in ext.elements():
            assert minimal_polynomial(ext, x) == oracle_minimal_polynomial(ext, x)


def test_linear_solve_refuses_all_but_one_solution():
    # a unique solution comes back in column order, pivot rows swapped or
    # not; a consistent rank-deficient system is UnderdeterminedSystem and
    # an inconsistent one InconsistentSystem
    assert linalg.solve(F3, [[0, 1], [1, 0], [1, 1]], [2, 1, 0]) == [1, 2]
    assert linalg.solve(F3, [], []) == []
    for rows, rhs in (([[1, 1], [2, 2]], [1, 2]), ([[0, 1], [0, 2]], [1, 2]),
                      ([[1, 2, 0]], [1])):
        with pytest.raises(linalg.UnderdeterminedSystem):
            linalg.solve(F3, rows, rhs)
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve(F3, [[1, 1], [2, 2]], [1, 1])
    # seeded consistent systems over F_5, 5 x 4: the solution is the one
    # planted, or some nonzero v has rows v = 0 (found by search over F_5^4)
    F5 = field_make(5, 1)
    rng = random.Random(36)
    refused = 0
    for _ in range(40):
        rows = [[rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(4)] for _ in range(5)]
        x0 = [rng.randrange(5) for _ in range(4)]
        rhs = [sum(a * x for a, x in zip(row, x0)) % 5 for row in rows]
        try:
            assert linalg.solve(F5, rows, rhs) == x0, rows
        except linalg.UnderdeterminedSystem:
            refused += 1
            assert any(all(sum(a * x for a, x in zip(row, v)) % 5 == 0 for row in rows)
                       for v in itertools.product(range(5), repeat=4) if any(v)), rows
    assert 0 < refused < 40


def test_minimal_polynomial_matches_poly_product_oracle():
    for ext in (ext_make(field_make(3, 2), 2), ext_make(F3, 5)):
        for x in ext.elements():
            assert minimal_polynomial(ext, x) == product_minimal_polynomial(ext, x)


def test_minimal_polynomial_on_table_free_twins(monkeypatch):
    # minimal_polynomial runs on arith(), which a field without tables hands
    # out as packed ints over a prime base and as codes over a tower: every
    # element of the twins of F_81, F_{3^5} and F_81/F_9
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    for ext in (ext_make(F3, 4), ext_make(F3, 5), ext_make(field_make(3, 2), 2)):
        assert ext._exp is None
        for x in ext.elements():
            assert minimal_polynomial(ext, x) == product_minimal_polynomial(ext, x), x


def test_minimal_polynomial_above_the_table_limit():
    # seeded elements of F_{3^11}, F_{5^7} and the tower F_{9^6}, and of each
    # subfield F_{q^k}, whose minimal polynomials have degree dividing k
    rng = random.Random(34)
    for ext in (ext_make(F3, 11), ext_make(field_make(5, 1), 7),
                ext_make(field_make(3, 2), 6)):
        assert ext._exp is None
        q, n = ext.base.order, ext.degree
        xs = [0, 1, ext.scalar(-1)] + [rng.randrange(ext.order) for _ in range(12)]
        for k in (k for k in range(1, n + 1) if n % k == 0):
            xs += [ext.pow(rng.randrange(1, ext.order), (ext.order - 1) // (q**k - 1))
                   for _ in range(3)]
        for x in xs:
            mp = minimal_polynomial(ext, x)
            assert mp == product_minimal_polynomial(ext, x), x
            assert n % int(mp.deg) == 0


def rand_poly(field, max_deg, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(max_deg + 1)])


def test_minimal_polynomial_of_base_elements():
    for a in range(3):
        mp = minimal_polynomial(EXT9, a)
        assert mp == Poly(F3, (F3.neg(a), 1))


def test_minimal_polynomial_of_generator_is_modulus():
    y = EXT9.from_coords((0, 1))
    assert minimal_polynomial(EXT9, y) == Poly(F3, (1, 0, 1))


def test_derived_invariants():
    dm = DrinfeldModule(EXT9, 0, 1, 1)
    assert (dm.P, dm.d, dm.m, dm.n) == (Poly.x(F3), 1, 2, 2)
    y = EXT9.from_coords((0, 1))
    dm2 = DrinfeldModule(EXT9, y, 1, 1)
    assert (dm2.d, dm2.m) == (2, 1)


def test_rank_two_requires_nonzero_delta():
    with pytest.raises(RankError):
        DrinfeldModule(EXT1, 0, 1, 0)


def test_coefficient_codes_must_lie_in_L():
    # a code outside range(|L|) would print and then fail deep in charpoly
    for gamma, g, delta in ((0, 1, 100), (9, 1, 1), (0, -1, 1), (0, 1, 9)):
        with pytest.raises(FieldError):
            DrinfeldModule(EXT9, gamma, g, delta)
    assert DrinfeldModule(EXT9, 8, 8, 8).delta == 8


def test_phi_T_squared_oracle():
    # gamma = 0, g = 1, delta = 1 over F_3: Phi_{T^2} = (t + t^2)^2
    dm = DrinfeldModule(EXT1, 0, 1, 1)
    T2 = Poly(F3, (0, 0, 1))
    assert dm.phi(T2).coeffs == (0, 0, 1, 2, 1)


def test_phi_is_a_ring_homomorphism():
    rng = random.Random(17)
    dm = DrinfeldModule(EXT9, EXT9.from_coords((1, 1)), 4, 7)
    for _ in range(60):
        a = rand_poly(F3, rng.randrange(4), rng)
        b = rand_poly(F3, rng.randrange(4), rng)
        assert dm.phi(a + b) == dm.phi(a) + dm.phi(b)
        assert dm.phi(a * b) == dm.phi(a) * dm.phi(b)


def test_phi_doubles_degree():
    dm = DrinfeldModule(EXT9, 0, 1, 1)
    rng = random.Random(19)
    for _ in range(40):
        a = rand_poly(F3, rng.randrange(4), rng)
        if a.is_zero():
            assert dm.phi(a).is_zero()
        else:
            assert dm.phi(a).deg == 2 * a.deg


def test_height_values():
    assert DrinfeldModule(EXT1, 0, 0, 1).height() == 2
    assert DrinfeldModule(EXT1, 0, 1, 1).height() == 1
    assert DrinfeldModule(EXT1, 1, 0, 1).height() == 2  # Phi_{T+2} = t^2
    assert DrinfeldModule(EXT1, 1, 2, 1).height() == 1


def test_constant_twist_is_conjugation():
    # u Phi_T = Psi_T u as Ore polynomials, for every unit u
    dm = DrinfeldModule(EXT9, EXT9.from_coords((0, 1)), 3, 5)
    for u in EXT9.units():
        psi = twist_constant(dm, u)
        cu = OrePoly.constant(EXT9, u)
        assert cu * dm.phi_T() == psi.phi_T() * cu
    with pytest.raises(ValueError):
        twist_constant(dm, 0)


def test_tau_twist_is_conjugation():
    dm = DrinfeldModule(EXT9, EXT9.from_coords((1, 2)), 3, 5)
    psi = twist_tau(dm)
    t = OrePoly.tau_power(EXT9, 1)
    assert t * dm.phi_T() == psi.phi_T() * t


def test_json_roundtrip():
    F9 = field_make(3, 2)
    cases = [
        (EXT9, EXT9.from_coords((2, 1)), 5, 7),
        (EXT1, 2, 1, 2),  # F_3, n = 1
        (ext_make(F3, 4), 17, 40, 63),  # F_{3^4}
        (ext_make(F9, 2), 30, 1, 77),  # the tower F_{9^2}
        (ext_make(F3, 11), 3**10 + 5, 3**11 - 1, 12345),  # table-free
    ]
    for ext, gamma, g, delta in cases:
        dm = DrinfeldModule(ext, gamma, g, delta)
        back = DrinfeldModule.from_json(json.dumps(dm.to_json()))
        assert back.ext == dm.ext, ext
        assert back.to_json() == dm.to_json(), ext
        assert (back.gamma, back.g, back.delta) == (dm.gamma, dm.g, dm.delta)
    data = DrinfeldModule(EXT9, 0, 1, 1).to_json()
    for q in (6, 1):
        with pytest.raises(FieldError, match="not a prime power"):
            DrinfeldModule.from_json(dict(data, q=q))
    # malformed input is a FieldError naming the key, before any field work
    for key, value in (("q", "9"), ("n", "2"), ("n", 2.0), ("q", 9.0),
                       ("q", True), ("n", False), ("q", None)):
        with pytest.raises(FieldError, match="%s = .* is not an int" % key):
            DrinfeldModule.from_json(dict(data, **{key: value}))
    for key in data:
        partial = {k: v for k, v in data.items() if k != key}
        with pytest.raises(FieldError, match="lacks the key '%s'" % key):
            DrinfeldModule.from_json(partial)
    with pytest.raises(FieldError, match="lacks the key 'q'"):
        DrinfeldModule.from_json("[3, 2]")


def test_all_modules_count():
    assert sum(1 for _ in all_modules(EXT1)) == 3 * 3 * 2
    assert sum(1 for _ in all_modules(EXT9)) == 9 * 9 * 8
