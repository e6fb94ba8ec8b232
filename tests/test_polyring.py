import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from drinfeld2 import (
    Poly,
    PolyDomainError,
    ext_make,
    field_make,
    gcd,
    is_irreducible,
    least_irreducible_poly,
    monic_irreducibles,
    poly_from_human,
    poly_from_machine,
    poly_from_str,
    squarefree_decomposition,
    squarefree_split,
)
from drinfeld2 import ff
from oracles import (
    constructive_products,
    count_monic_irreducibles,
    loop_poly_from_human,
    pow_mod,
    rabin_irreducible,
)

F3 = field_make(3, 1)
F5 = field_make(5, 1)
F9 = field_make(3, 2)
# the fields and degrees of the irreducibles pi_i of constructive_products
PRODUCT_FIELDS = ((F3, (1, 2)), (F5, (1,)), (F9, (1,)))


def rand_poly(field, max_deg, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(max_deg + 1)])


def test_schoolbook_product_oracle():
    T = Poly.x(F3)
    one = Poly.one(F3)
    two = Poly.constant(F3, 2)
    assert (T + one) * (T + two) == Poly(F3, (2, 0, 1))  # T^2 + 2


def test_divmod_reconstruction_random():
    rng = random.Random(7)
    for field in (F5, F9):
        for _ in range(300):
            a = rand_poly(field, rng.randrange(6), rng)
            b = rand_poly(field, rng.randrange(4), rng)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.deg < b.deg


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=6),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
)
def test_divmod_reconstruction_f3(ac, bc):
    a = Poly(F3, ac)
    b = Poly(F3, bc)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a


def test_gcd_divides_and_is_monic():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_poly(F3, rng.randrange(5), rng)
        b = rand_poly(F3, rng.randrange(5), rng)
        if a.is_zero() and b.is_zero():
            continue
        g = gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert g.lc() == F3.one
        assert g.divides(a) and g.divides(b)


def _has_factor(f):
    """Exhaustive trial division by monic polynomials of lower degree."""
    field = f.field
    d = len(f.coeffs) - 1
    for k in range(1, d):
        for tail in itertools.product(range(field.order), repeat=k):
            cand = Poly(field, list(tail) + [field.one])
            if cand.divides(f):
                return True
    return False


@pytest.mark.parametrize("field,max_deg", [(F3, 4), (F5, 3)])
def test_irreducibility_against_trial_division(field, max_deg):
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(field.order), repeat=d):
            f = Poly(field, list(tail) + [field.one])
            assert is_irreducible(f) == (not _has_factor(f))


def test_irreducibility_rejects_constants():
    with pytest.raises(PolyDomainError):
        is_irreducible(Poly.one(F3))


def test_irreducible_counts_match_necklace_formula():
    for field in (F3, F5):
        for d in (1, 2, 3):
            found = sum(1 for _ in monic_irreducibles(field, d))
            assert found == count_monic_irreducibles(field.order, d)


def test_least_irreducible_poly():
    assert least_irreducible_poly(F3, 1) == Poly.x(F3)
    assert least_irreducible_poly(F3, 2) == Poly(F3, (1, 0, 1))
    for field in (F3, F9):
        for d in range(1, 5):
            assert least_irreducible_poly(field, d) == next(monic_irreducibles(field, d))


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(23)
    for _ in range(150):
        f = rand_poly(F3, 1 + rng.randrange(7), rng)
        if f.is_zero() or f.is_constant():
            continue
        parts = squarefree_decomposition(f)
        prod = Poly.one(F3)
        for mult, fac in parts.items():
            prod = prod * fac**mult
        assert prod == f.monic()


def test_squarefree_decomposition_pth_power():
    # (T + 1)^3 has zero derivative over F_3
    f = (Poly.x(F3) + Poly.one(F3)) ** 3
    parts = squarefree_decomposition(f)
    assert parts == {3: Poly.x(F3) + Poly.one(F3)}
    # f = u * prod pi_i^e_i built from its factors, e_i in {1, 2, p, p + 1,
    # 2p}: multiplicities p and 2p leave the loop a p-th-power residue, and
    # all of f when every e_i is one of them (f' = 0)
    products = 0
    for f, expected, _ in constructive_products(PRODUCT_FIELDS):
        assert squarefree_decomposition(f) == expected, f
        g, w = squarefree_split(f)
        assert g * g * w == f, f
        products += 1
    assert products == 1625
    for field in (F3, F5, F9):
        assert squarefree_decomposition(Poly.constant(field, 2)) == {}


def test_squarefree_split_exact():
    rng = random.Random(29)
    for _ in range(150):
        f = rand_poly(F5, 1 + rng.randrange(6), rng)
        if f.is_zero():
            continue
        g, w = squarefree_split(f)
        assert g * g * w == f
        assert g.is_zero() or g.lc() == F5.one
        # w is squarefree: no repeated factor in its decomposition
        if not w.is_constant():
            assert all(m == 1 for m in squarefree_decomposition(w))


def test_squarefree_split_raises_no_factor_to_the_power_0(record_calls):
    # a factor of multiplicity 1 goes into omega only: of (T+1)(T^2+1)T^3
    # the split raises T alone, to the power 3 // 2 = 1, in the kernel
    T, one = Poly.x(F3), Poly.one(F3)
    f = (T + one) * (T * T + one) * T * T * T
    raises = record_calls(ff, "_list_pow")
    assert squarefree_split(f) == (T, (T + one) * (T * T + one) * T)
    assert [e for _, _, e in raises] == [1]


def factorization(f):
    """[(pi, e)] for f != 0 from the kernel: Yun's parts of f.monic(), then
    the distinct- and equal-degree factorization of each."""
    F = f.field
    parts = ff._list_squarefree(F, f.monic().coeffs).items()
    return [(Poly(F, pi), e) for pi, e in ff._list_prime_powers(F, parts)]


def check_factorization(f, primes):
    """Each pi is monic and irreducible by Rabin's test, the pi are
    distinct, and prod pi^e is f.monic()."""
    F = f.field
    product = Poly.one(F)
    for pi, e in primes:
        assert pi.lc() == F.one and rabin_irreducible(F, pi.coeffs), (f, pi)
        product = product * pi**e
    assert len({pi for pi, _ in primes}) == len(primes), f
    assert product == f.monic(), f


def test_factorization_of_every_small_monic():
    # every monic f of degree <= 6 over F_3 and <= 4 over F_5, F_7 and F_9
    tested = 0
    for field, max_deg in ((F3, 6), (F5, 4), (field_make(7, 1), 4), (F9, 4)):
        for d in range(max_deg + 1):
            for tail in itertools.product(range(field.order), repeat=d):
                f = Poly(field, tail + (field.one,))
                check_factorization(f, factorization(f))
                tested += 1
    assert tested == 1093 + 781 + 2801 + 7381


def test_factorization_of_constructive_products():
    # u * prod pi_i^e_i factors back into its own (pi_i, e_i), multiplicities
    # p and 2p (p-th-power parts) included
    for f, _, built in constructive_products(PRODUCT_FIELDS):
        primes = factorization(f)
        check_factorization(f, primes)
        assert sorted(primes, key=str) == sorted(built, key=str), f


def test_equal_degree_split_runs_on_products_of_equal_degree():
    # products of 2 to 4 distinct irreducibles of one degree: Ben-Or's loop
    # yields each product whole, and Cantor-Zassenhaus splits it
    for field, d, count in ((F3, 1, 3), (F3, 2, 3), (F3, 3, 4), (F5, 2, 4), (F9, 2, 3)):
        pis = list(itertools.islice(monic_irreducibles(field, d), count))
        for r in range(2, count + 1):
            for chosen in itertools.combinations(pis, r):
                f = Poly.one(field)
                for pi in chosen:
                    f = f * pi
                assert [i for i, _ in ff._list_distinct_degree(field, f.coeffs)] == [d]
                found = ff._list_equal_degree(field, list(f.coeffs), d)
                assert sorted(map(tuple, found)) == sorted(pi.coeffs for pi in chosen)


def test_equal_degree_split_draws_few_trials(record_calls):
    # Cantor-Zassenhaus on the product of every monic irreducible of one
    # degree i: with the exponent (B^i - 1)/2 each trial splits the factors
    # about in half, so 7 trials separate the 10 quadratics over F_5 and 4
    # the 8 cubics over F_3.  The exhaustive trial order still ends with the
    # exponents B^i - 1, 1 or (B^i + 1)/2, but only after 39 to 57 trials,
    # so the count is what pins the exponent
    powmods = record_calls(ff, "_list_powmod")
    for field, i, count in ((F5, 2, 7), (F3, 3, 4)):
        pis = [pi.coeffs for pi in monic_irreducibles(field, i)]
        f = [field.one]
        for pi in pis:
            f = ff._list_mul(field, f, pi)
        powmods.clear()
        found = ff._list_equal_degree(field, f, i)
        assert sorted(map(tuple, found)) == sorted(pis), (field, i)
        # one powmod per factor product in play, all on the trial's list
        trials = {id(a): a for _, a, _, _ in powmods}
        assert len(trials) == count, (field, i, len(trials))


def test_parse_human_and_machine_agree():
    for text_h, text_m in [("T^2+2*T+1", "1,2,1"), ("T", "0,1"), ("2", "2")]:
        assert poly_from_human(F3, text_h) == poly_from_machine(F3, text_m)
        assert poly_from_str(F3, text_h) == poly_from_str(F3, text_m)


def test_parse_signs_and_spaces():
    assert poly_from_human(F3, " T^2 - T + 1 ") == Poly(F3, (1, 2, 1))
    assert poly_from_human(F3, "-T") == Poly(F3, (0, 2))


def _parse_outcome(parse, field, text):
    try:
        return parse(field, text).coeffs
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _grammar_text(field, rng):
    """A sum of 1-4 terms, each after a sign run of length 0-3: c, T, T^k,
    c*T or c*T^k with c in digit form, or a broken term; now and then an
    out-of-range or overlong coefficient, a trailing sign or spaces."""

    def coeff():
        n = rng.randint(1, field.pdeg + (rng.random() < 0.1))
        top = field.char + (rng.random() < 0.1)
        return ",".join(str(rng.randrange(top)) for _ in range(n))

    def term():
        power = "T^%d" % rng.randint(0, 500)
        broken = rng.choice(["T^", "T^x", "TT", "T^2^3", "T*T", "x", "*T", "2*"])
        return rng.choice([coeff(), "T", power, coeff() + "*T", coeff() + "*" + power, broken])

    # a run of length 0 only in front, where it cannot join two terms
    text = "".join(
        "".join(rng.choice("+-") for _ in range(rng.randint(min(i, 1), 3))) + term()
        for i in range(rng.randint(1, 4))
    )
    if rng.random() < 0.05:
        text += rng.choice("+-")
    if rng.random() < 0.2:
        cut = rng.randint(0, len(text))
        text = text[:cut] + " " + text[cut:]
    return text


# "T^" is one piece, so that powers are common enough for a newline after
# the caret (what re.DOTALL is there for) to come up
_RANDOM_PIECES = (
    "T", "T^", "^", "*", "+", "-", ",", "0", "1", "2", "7", " ", "\t", "\n", "_", "x",
)


def _random_text(rng):
    """Up to 8 random pieces of _RANDOM_PIECES, such that every text after a
    '^' (to the next sign) reads as no integer above 500, so no parse
    allocates a large coefficient list."""
    while True:
        text = "".join(rng.choice(_RANDOM_PIECES) for _ in range(rng.randint(0, 8)))
        tails = re.findall(r"(?=\^([^+-]*))", text.replace(" ", ""))
        if not any(_reads_above(tail, 500) for tail in tails):
            return text


def _reads_above(tail, bound):
    try:
        return int(tail) > bound
    except ValueError:
        return False


def test_tokenizer_matches_the_loop_parser():
    # the regex tokenizer against the per-character loop it replaced, on a
    # seeded grammar corpus and a seeded random corpus: the same coefficients,
    # or the same exception class and message
    fields = [F3, F5, field_make(7, 1), F9, field_make(5, 2)]
    rng = random.Random(25)
    cases = [(F, _grammar_text(F, rng)) for F in rng.choices(fields, k=10000)]
    cases += [(rng.choice(fields), _random_text(rng)) for _ in range(10000)]
    for field, text in cases:
        assert _parse_outcome(poly_from_human, field, text) == _parse_outcome(
            loop_poly_from_human, field, text
        ), (field, text)


def test_machine_form_uses_semicolons_over_nonprime_fields():
    # over F_9 a coefficient is a comma-separated list of base-3 digits, so
    # semicolons separate the coefficients
    f = Poly(F9, (F9.from_str("2,1"), F9.one))
    assert poly_from_machine(F9, "2,1;1") == f


def test_machine_roundtrip_prime_field():
    rng = random.Random(31)
    for _ in range(50):
        f = rand_poly(F3, rng.randrange(5), rng)
        if f.is_zero():
            continue
        # over a prime field the machine text is the residues, low first
        assert poly_from_machine(F3, ",".join(map(str, f.coeffs))) == f
        assert poly_from_str(F3, f.to_human()) == f


def test_eval_in_extension_finds_root():
    ext = ext_make(F3, 2)
    P = Poly(F3, (1, 0, 1))  # T^2 + 1, the defining modulus
    y = ext.from_coords((0, 1))
    assert P.eval(y, field=ext) == ext.zero
    assert P.eval(1) == F3.add(1, 1)


def test_zero_and_degree_zero_are_refused():
    zero, f = Poly.zero(F5), Poly(F5, (2, 4))
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(f, zero)
    # 0 divides only 0
    assert zero.divides(zero)
    assert not any(zero.divides(g) for g in (f, Poly.one(F5), Poly.x(F5)))
    with pytest.raises(PolyDomainError, match="squarefree decomposition of 0"):
        squarefree_decomposition(zero)
    with pytest.raises(PolyDomainError, match="squarefree split of 0"):
        squarefree_split(zero)
    with pytest.raises(PolyDomainError, match="degree must be >= 1"):
        next(monic_irreducibles(F5, 0))


def test_eval_refuses_an_unrelated_field():
    # a field that contains no copy of F: another prime field and an
    # extension of it
    f = Poly(F3, (1, 0, 1))
    for other in (F5, ext_make(F5, 2)):
        with pytest.raises(PolyDomainError, match="unrelated field"):
            f.eval(1, field=other)


def test_monic_and_edge_cases():
    f = Poly(F5, (2, 4))
    assert f.monic().lc() == F5.one
    with pytest.raises(PolyDomainError):
        Poly.zero(F5).monic()
    with pytest.raises(PolyDomainError):
        Poly.zero(F5).lc()
    assert Poly(F5, (0, 0, 0)).is_zero()


def test_powers_match_repeated_multiplication():
    rng = random.Random(29)
    for field in (F3, F9):
        for _ in range(4):
            f = rand_poly(field, 3, rng)
            M = rand_poly(field, 3, rng) + Poly(field, (0, 0, 0, 0, 1))
            power = Poly.one(field)
            for e in range(13):
                assert f**e == power, (field, f, e)
                assert pow_mod(f, e, M) == power % M, (field, f, M, e)
                power = power * f
    with pytest.raises(PolyDomainError):
        Poly(F3, (1, 1)) ** -1


def test_deriv():
    f = Poly(F3, (1, 2, 0, 1))  # 1 + 2T + T^3
    assert f.deriv() == Poly(F3, (2,))  # 3T^2 vanishes
