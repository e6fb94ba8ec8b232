import random

import pytest

from drinfeld2 import (
    OreDomainError,
    OrePoly,
    ext_make,
    field_make,
    height,
    kernel_size_exp,
)

F3 = field_make(3, 1)
EXT1 = ext_make(F3, 1)
EXT9 = ext_make(F3, 2)


def rand_ore(ext, max_deg, rng):
    return OrePoly(ext, [rng.randrange(ext.order) for _ in range(max_deg + 1)])


def test_commutation_rule():
    # t * lam = lam^q * t for every lam in F_9
    t = OrePoly.tau_power(EXT9, 1)
    for lam in EXT9.elements():
        left = t * OrePoly.constant(EXT9, lam)
        right = OrePoly.constant(EXT9, EXT9.frob_iter(lam, 1)) * t
        assert left == right


def test_square_oracle():
    # (t + t^2)^2 = t^2 + 2 t^3 + t^4 over F_3 (trivial Frobenius)
    u = OrePoly(EXT1, (0, 1, 1))
    assert (u * u).coeffs == (0, 0, 1, 2, 1)
    # a zero operand on either side gives zero, trimmed
    for L in (EXT1, EXT9):
        zero = OrePoly.zero(L)
        for k in range(4):
            t_k = OrePoly.tau_power(L, k)
            assert (zero * t_k).coeffs == () and (t_k * zero).coeffs == (), (L, k)
        assert (zero * zero).coeffs == ()


def test_multiplication_is_associative():
    rng = random.Random(5)
    for _ in range(100):
        a = rand_ore(EXT9, rng.randrange(4), rng)
        b = rand_ore(EXT9, rng.randrange(4), rng)
        c = rand_ore(EXT9, rng.randrange(4), rng)
        assert (a * b) * c == a * (b * c)


def test_left_distributivity():
    rng = random.Random(6)
    for _ in range(100):
        a = rand_ore(EXT9, rng.randrange(4), rng)
        b = rand_ore(EXT9, rng.randrange(4), rng)
        c = rand_ore(EXT9, rng.randrange(4), rng)
        assert a * (b + c) == a * b + a * c


def test_noncommutative_example():
    y = EXT9.from_coords((0, 1))
    t = OrePoly.tau_power(EXT9, 1)
    lam = OrePoly.constant(EXT9, y)
    assert t * lam != lam * t


def test_rdivmod_reconstruction():
    rng = random.Random(9)
    for _ in range(200):
        a = rand_ore(EXT9, rng.randrange(6), rng)
        b = rand_ore(EXT9, rng.randrange(4), rng)
        if b.is_zero():
            continue
        q, r = a.rdivmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.deg < b.deg


def test_rdivmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        OrePoly.one(EXT9).rdivmod(OrePoly.zero(EXT9))


def test_height_and_kernel_size():
    u = OrePoly(EXT9, (0, 0, 1, 2))
    assert height(u) == 2
    assert kernel_size_exp(u) == 1
    v = OrePoly(EXT9, (1, 1))
    assert height(v) == 0
    assert kernel_size_exp(v) == 1
    with pytest.raises(OreDomainError):
        height(OrePoly.zero(EXT9))
    with pytest.raises(OreDomainError, match="kernel of 0"):
        kernel_size_exp(OrePoly.zero(EXT9))


def test_monic_and_lscale():
    u = OrePoly(EXT9, (1, 2))
    m = u.monic()
    assert m.lc() == EXT9.one
    assert m == u.lscale(EXT9.inv(2))


def test_tau_power_and_str():
    t3 = OrePoly.tau_power(EXT1, 3)
    assert t3.coeffs == (0, 0, 0, 1)
    assert str(t3) == "t^3"
    assert str(OrePoly.zero(EXT1)) == "0"
    # repr wraps the text form, coefficients in the field's digit form
    assert repr(OrePoly(EXT9, (0, 0, 1, 2))) == "OrePoly(t^2 + 2,0*t^3)"
    assert repr(OrePoly(EXT1, (2, 1))) == "OrePoly(2 + t)"
    assert repr(OrePoly.zero(EXT9)) == "OrePoly(0)"
