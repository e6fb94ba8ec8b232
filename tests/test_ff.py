import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld2 import (
    DrinfeldModule,
    FieldError,
    IncompatibleFieldError,
    PrimeField,
    charpoly,
    classify,
    ext_make,
    field_make,
    verify,
)
from drinfeld2 import cli, ff
from drinfeld2.ff import check_same_field, least_irreducible
from oracles import (
    is_square_unit,
    least_generator,
    list_kernel_mul,
    rabin_irreducible,
    split_walk_tables,
)


def test_prime_field_matches_integer_arithmetic():
    F = PrimeField(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
            assert F.sub(a, b) == (a - b) % 7
        assert F.neg(a) == (-a) % 7


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        field_make(2, 3)


def test_composite_characteristic_rejected():
    for p in (9, 1, 0, -3, 15, 25):
        with pytest.raises(FieldError):
            PrimeField(p)


def test_auto_modulus_is_least_irreducible():
    base = PrimeField(3)
    assert least_irreducible(base, 1) == (0, 1)
    assert least_irreducible(base, 2) == (1, 0, 1)
    ext = ext_make(base, 2)
    assert ext.modulus == (1, 0, 1)
    # values from the search over every candidate, c_0 = 0 included
    assert least_irreducible(base, 9) == (1, 0, 0, 0, 0, 0, 2, 1, 0, 1)
    assert least_irreducible(base, 10) == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    assert least_irreducible(PrimeField(5), 6) == (1, 0, 0, 0, 1, 1, 1)


def test_least_irreducible_rejects_degree_below_one():
    for degree in (0, -1):
        with pytest.raises(FieldError, match="degree must be >= 1"):
            least_irreducible(PrimeField(3), degree)


def monics(F, degree):
    """Every monic polynomial of the degree over F, as coefficient tuples."""
    for tail in itertools.product(range(F.order), repeat=degree):
        yield tail + (F.one,)


def test_irreducibility_matches_rabin_oracle():
    # every monic f of degree <= 5 over F_3, <= 4 over F_5 and F_7, <= 3 over
    # F_9 and <= 2 over F_25
    tested = 0
    for (p, s), max_deg in (((3, 1), 5), ((5, 1), 4), ((7, 1), 4),
                            ((3, 2), 3), ((5, 2), 2)):
        F = field_make(p, s)
        for d in range(1, max_deg + 1):
            for f in monics(F, d):
                assert ff._list_irreducible(F, f) == rabin_irreducible(F, f), f
                tested += 1
    assert tested == 5412
    # the modulus search finds the oracle's least irreducible, so no field
    # presentation moves; from degree 2 on, c_0 = 0 means the factor T
    for F, max_deg in ((PrimeField(3), 12), (PrimeField(5), 7)):
        for d in range(1, max_deg + 1):
            least = next(
                f for f in monics(F, d)
                if (d == 1 or f[0]) and rabin_irreducible(F, f)
            )
            assert least_irreducible(F, d) == least


def test_irreducibility_stops_at_the_smallest_factor_degree(record_calls):
    # one more B-th power mod f per degree tried: a root stops the test at
    # degree 1, a product of two irreducible quadratics at degree 2, and an
    # irreducible f of degree d runs all floor(d/2) degrees
    powmods = record_calls(ff, "_list_powmod")

    def powers(F, f):
        powmods.clear()
        irreducible = ff._list_irreducible(F, f)
        return irreducible, len(powmods)

    F = PrimeField(3)
    with_root = 0
    for d in range(2, 7):
        for f in monics(F, d):
            if any(sum(c * a**i for i, c in enumerate(f)) % 3 == 0 for a in range(3)):
                assert powers(F, f) == (False, 1), f
                with_root += 1
    assert with_root > 0
    quadratics = [f for f in monics(F, 2) if rabin_irreducible(F, f)]
    assert len(quadratics) == 3
    for g, h in itertools.combinations_with_replacement(quadratics, 2):
        assert powers(F, tuple(ff._list_mul(F, g, h))) == (False, 2), (g, h)
    for F, max_deg in ((PrimeField(3), 7), (PrimeField(5), 4), (field_make(3, 2), 3)):
        for d in range(1, max_deg + 1):
            for f in monics(F, d):
                if rabin_irreducible(F, f):
                    assert powers(F, f) == (True, d // 2), f


def test_extension_generator_cube_is_frobenius():
    # y^3 by plain products must agree with the Frobenius
    base = PrimeField(3)
    ext = ext_make(base, 2)
    y = ext.from_coords((0, 1))
    assert ext.mul(ext.mul(y, y), y) == ext.frob_iter(y, 1)


@pytest.mark.parametrize("p,s", [(3, 2), (5, 2), (3, 3)])
def test_field_axioms_exhaustive(p, s):
    F = field_make(p, s)
    elems = list(F.elements())
    one = F.one
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == one
    # spot-check associativity and distributivity on a grid
    sample = elems[:: max(1, len(elems) // 7)]
    for a in sample:
        for b in sample:
            for c in sample:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_table_mul_matches_polynomial_mul(monkeypatch):
    # each field against a twin built without tables (base field included)
    builds = [
        lambda: field_make(3, 2),
        lambda: field_make(5, 2),
        lambda: field_make(3, 3),
        lambda: ext_make(field_make(3, 2), 2),
    ]
    for build in builds:
        ext = build()
        with monkeypatch.context() as m:
            m.setattr(ff, "_TABLE_LIMIT", 0)
            twin = build()
        assert ext._exp is not None and twin._exp is None
        assert twin == ext
        for a in ext.elements():
            for b in ext.elements():
                assert twin.mul(a, b) == ext.mul(a, b)
            assert twin.frob_iter(a, 1) == ext.frob_iter(a, 1)
            exponents = (0, 1, 2, 5, ext.order - 2) + ((-3, -1) if a else ())
            for e in exponents:
                assert twin.pow(a, e) == ext.pow(a, e)
            if a:
                assert twin.inv(a) == ext.inv(a)


def test_powers_of_zero(monkeypatch):
    # 0 has no log: pow and the Frobenius take it through the generic
    # square-and-multiply, with and without tables
    builds = [
        lambda: field_make(3, 2),
        lambda: ext_make(field_make(3, 2), 2),
        lambda: field_make(5, 3),
    ]
    for build in builds:
        F = build()
        with monkeypatch.context() as m:
            m.setattr(ff, "_TABLE_LIMIT", 0)
            twin = build()
        assert F._exp is not None and twin._exp is None
        q, N = F.base.order, F.order - 1
        for field in (F, twin):
            assert field.pow(0, 0) == field.one, field
            for e in (1, 2, q, N, N + 1):
                assert field.pow(0, e) == field.zero, (field, e)
            for i in range(F.degree + 1):
                assert field.frob_iter(0, i) == field.zero, (field, i)
            with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                field.pow(0, -1)
            with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                field.inv(0)


# F_9 and F_27 over F_3, and the towers F_81/F_9 and F_729/F_9, where the
# base-field order q and the coordinate radix differ from p
TOWER_BUILDS = [
    lambda: field_make(3, 2),
    lambda: field_make(3, 3),
    lambda: ext_make(field_make(3, 2), 2),
    lambda: ext_make(field_make(3, 2), 3),
]


def oracle_pdigits(F, a):
    """The recursive codec: the digits of each coordinate over the base,
    concatenated low first."""
    if isinstance(F, PrimeField):
        return (a,)
    out = []
    for c in F.coords(a):
        out.extend(oracle_pdigits(F.base, c))
    return tuple(out)


def oracle_from_pdigits(F, digits):
    if isinstance(F, PrimeField):
        return digits[0]
    k = F.base.pdeg
    return F.from_coords(
        [oracle_from_pdigits(F.base, digits[i * k : (i + 1) * k]) for i in range(F.degree)]
    )


def test_text_codec_matches_recursive_oracle():
    for build in TOWER_BUILDS:
        F = build()
        for a in F.elements():
            digits = oracle_pdigits(F, a)
            assert ff._to_digits(a, F.char, F.pdeg) == digits, (F, a)
            assert ff._from_digits(list(digits), F.char) == a, (F, a)
            assert oracle_from_pdigits(F, ff._to_digits(a, F.char, F.pdeg)) == a, (F, a)
            text = ",".join(str(d) for d in digits)
            assert F.to_str(a) == text, (F, a)
            assert F.from_str(text) == a, (F, a)


def oracle_add(F, a, b):
    """The coordinate sum: decode both codes over the base, add coordinate
    by coordinate one level down, re-encode."""
    if isinstance(F, PrimeField):
        return (a + b) % F.order
    return F.from_coords(
        [oracle_add(F.base, x, y) for x, y in zip(F.coords(a), F.coords(b))]
    )


def oracle_neg(F, a):
    if isinstance(F, PrimeField):
        return (-a) % F.order
    return F.from_coords([oracle_neg(F.base, x) for x in F.coords(a)])


def _check_additive_ops(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == oracle_add(F, a, b), (F, a, b)
        assert F.sub(a, b) == oracle_add(F, a, oracle_neg(F, b)), (F, a, b)
    for a in {a for pair in pairs for a in pair}:
        assert F.neg(a) == oracle_neg(F, a), (F, a)


def test_digit_add_matches_coordinate_oracle(monkeypatch):
    # every pair of F_25, F_125 and the towers, except F_729/F_9 (a sample)
    rng = random.Random(7)
    builds = [lambda: field_make(5, 2), lambda: field_make(5, 3)] + TOWER_BUILDS

    def check_all(F):
        if F.order < 729:
            pairs = list(itertools.product(F.elements(), repeat=2))
        else:
            pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(20000)]
        _check_additive_ops(F, pairs)

    for build in builds:
        check_all(build())
    # table-free
    F = ext_make(PrimeField(3), 11)
    assert F._exp is None
    _check_additive_ops(
        F, [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(5000)]
    )
    # the table-free twins of the fields above, base fields included, which
    # add and negate on the digit codec instead of the Zech logarithms
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    for build in builds:
        F = build()
        assert F._exp is None
        check_all(F)


def per_unit_walk(F):
    """exp/log as the tables were first built: one list-kernel product per
    unit, from the least code whose powers run through every unit."""
    n_units = F.order - 1
    for gen in range(1, F.order):
        exp = [F.one]
        for _ in range(n_units - 1):
            x = list_kernel_mul(F, exp[-1], gen)
            if x == F.one:
                break
            exp.append(x)
        if len(exp) == n_units:
            break
    log = [None] * F.order  # 0 has no log
    for i, x in enumerate(exp):
        log[x] = i
    return exp + exp, log


def test_tables_match_per_unit_walk():
    builds = [(3, 2), (3, 3), (7, 2), (3, 4), (5, 3), (3, 7), (5, 4)]
    fields = [field_make(p, s) for p, s in builds]
    F9 = field_make(3, 2)
    fields += [ext_make(F9, 1), ext_make(F9, 2), ext_make(F9, 3)]
    for F in fields:
        assert (F._exp, F._log) == per_unit_walk(F), F
    # in F_{5^4}/F_5 no y + k is primitive; the least generator is y^2 + y
    assert field_make(5, 4)._exp[1] == 30


@pytest.fixture
def record_arith(monkeypatch):
    """Record a field's products and powers at two levels.  The mul and pow
    that ExtensionField.arith hands out append (field, code, code) and
    (field, code, exponent) to calls["mul"] and calls["pow"]: a table build
    and the generator search take their products and powers from arith(),
    packed over a prime base and on the list kernel over a tower.  Below
    that, every call of ExtensionField.mul, pow or _mul_poly and of a packed
    kernel's mul or pow that runs outside an arith() product or power
    appends (owner, name) to calls["stray"], the owner being the field or
    its _packed kernel."""
    calls = {"mul": [], "pow": [], "stray": []}
    depth = [0]

    def inside(fn, *args):
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1

    def watched(owner, name, fn):
        def wrapper(*args):
            if not depth[0]:
                calls["stray"].append((owner[0] if owner else args[0], name))
            return fn(*args)

        return wrapper

    for name in ("mul", "pow", "_mul_poly"):
        monkeypatch.setattr(ff.ExtensionField, name,
                            watched(None, name, getattr(ff.ExtensionField, name)))
    packed_arith = ff._packed_arith

    def watched_packed_arith(p, modulus):
        k = packed_arith(p, modulus)
        owner = []
        owner.append(k._replace(mul=watched(owner, "packed mul", k.mul),
                                pow=watched(owner, "packed pow", k.pow)))
        return owner[0]

    monkeypatch.setattr(ff, "_packed_arith", watched_packed_arith)
    arith = ff.ExtensionField.arith

    def recording(self):
        rep, code, zero, one, mul, add, pow, frob = arith(self)

        def recorded_mul(x, y):
            calls["mul"].append((self, code(x), code(y)))
            return inside(mul, x, y)

        def recorded_pow(x, e):
            calls["pow"].append((self, code(x), e))
            return inside(pow, x, e)

        return rep, code, zero, one, recorded_mul, add, recorded_pow, frob

    monkeypatch.setattr(ff.ExtensionField, "arith", recording)
    return calls


def test_table_build_makes_one_product_per_digit(monkeypatch, record_arith):
    # one table build is the generator search, which takes powers alone, plus
    # one product per base-p digit, the image p^k g: no product per unit or
    # per half code, and no field or kernel product outside those
    F9 = field_make(3, 2)
    for base, degree in [(PrimeField(3), 2), (PrimeField(3), 7), (PrimeField(5), 4),
                         (PrimeField(3), 10), (F9, 1), (F9, 2), (F9, 3)]:
        for calls in record_arith.values():
            calls.clear()
        F = ff.ExtensionField(base, degree)
        products = [call[1:] for call in record_arith["mul"] if call[0] is F]
        powers = [call[1:] for call in record_arith["pow"] if call[0] is F]
        stray = [name for owner, name in record_arith["stray"]
                 if owner is F or owner is F._packed]
        with monkeypatch.context() as m:
            m.setattr(ff, "_TABLE_LIMIT", 0)
            twin = ff.ExtensionField(base, degree)
        record_arith["pow"].clear()
        assert twin._least_generator() == F._exp[1]
        assert powers == [call[1:] for call in record_arith["pow"]], F
        assert products == [(F.char**k, F._exp[1]) for k in range(F.pdeg)], F
        assert stray == [], F


def test_packed_walk_matches_split_walk(monkeypatch):
    # slot widths w = 3 (p = 3) to 9 (p = 251), and towers over F_9, F_25, F_49
    F9, F25, F49 = field_make(3, 2), field_make(5, 2), field_make(7, 2)
    builds = [(PrimeField(3), 10), (PrimeField(5), 6), (PrimeField(7), 5),
              (PrimeField(11), 4), (PrimeField(13), 4), (PrimeField(251), 2),
              (F9, 5), (F25, 3), (F49, 2)]
    for base, degree in builds:
        F = ff.ExtensionField(base, degree)
        with monkeypatch.context() as m:
            m.setattr(ff, "_TABLE_LIMIT", 0)
            twin = ff.ExtensionField(base, degree)
        assert (F._exp, F._log, F._zech) == split_walk_tables(twin), F
        assert F.generator == twin.generator == least_generator(F), F


def test_slot_reduction_every_odd_prime_below_256():
    for p in range(3, 256, 2):
        if ff._prime_factors(p) != [p]:
            continue
        _, reduce = ff._slot_reducer(p, 1)
        assert [reduce(a + b) for a in range(p) for b in range(p)] == [
            (a + b) % p for a in range(p) for b in range(p)
        ], p
        # pdeg slots of the largest tabled field of characteristic p, each at
        # the bound 2p - 2, at p (the least that reduces) and at p - 1
        pdeg = max(s for s in range(1, 17) if p**s <= ff._TABLE_LIMIT)
        w, reduce = ff._slot_reducer(p, pdeg)
        ones = sum(1 << w * k for k in range(pdeg))
        for slot in (2 * p - 2, p, p - 1):
            assert reduce(slot * ones) == slot % p * ones, (p, slot)


@pytest.mark.parametrize("power", [2, 0])
def test_table_build_rejects_a_non_generator(power):
    # the square of the generator reaches half the units, 1 none but itself
    F = field_make(3, 4)
    F._generator = F.pow(F.generator, power)
    with pytest.raises(AssertionError, match="does not generate"):
        F._build_tables()


def test_least_generator_matches_search_from_one():
    # the towers, the fields of the benchmark's realize shapes (q, md),
    # F_{3^9}, F_{5^6} and F_9/F_9, where degree 1 leaves nothing to skip
    F9 = field_make(3, 2)
    fields = [build() for build in TOWER_BUILDS]
    for q, n in ((3, 2), (3, 3), (5, 2), (7, 2), (9, 1), (3, 4), (5, 3), (9, 2)):
        fields.append(ext_make(F9 if q == 9 else field_make(q, 1), n))
    fields += [field_make(3, 9), field_make(5, 6)]
    for F in fields:
        assert F._least_generator() == least_generator(F) == F._exp[1], F
    # F_9/F_9, the field of the shape (9, 1, 1), has degree 1: its generator
    # is a code below the base order, which the search must not skip
    F = ext_make(F9, 1)
    assert F._least_generator() == least_generator(F) < F.base.order


def test_generator_search_skips_the_base_field(record_arith):
    # F_125 over F_5 and F_81 over F_9: the search tests no code below the
    # base order, whose codes are the base field; over F_9/F_9 it starts at 1
    calls = record_arith["pow"]
    F9 = field_make(3, 2)
    for base, degree in [(PrimeField(5), 3), (F9, 2), (F9, 1)]:
        calls.clear()
        F = ff.ExtensionField(base, degree)
        tested = sorted({a for field, a, _ in calls if field is F})
        start = 1 if degree == 1 else base.order
        assert tested[0] == start and tested[-1] == F._exp[1], (F, tested)


def test_arith_matches_field_ops(monkeypatch):
    # the towers, the fields of the benchmark's realize shapes (q, md), F_9/F_9
    # among them, and the table-free twin of each: every op arith() hands
    # out agrees with the field's own after code: on all pairs up to
    # |L| = 81, and above it on 2000 seeded pairs and the pairs with 0; pow
    # on every unit up to |L| = 125, and above it on 200 seeded units
    builds = list(TOWER_BUILDS)
    for q, n in ((3, 2), (3, 3), (5, 2), (7, 2), (9, 1), (3, 4), (5, 3), (9, 2)):
        builds.append(
            lambda q=q, n=n: ext_make(field_make(3, 2) if q == 9 else field_make(q, 1), n)
        )
    rng = random.Random(23)
    for build in builds:
        F = build()
        with monkeypatch.context() as patch:
            patch.setattr(ff, "_TABLE_LIMIT", 0)
            twin = build()
        assert F._zech is not None and twin._zech is None and twin == F
        q = F.base.order
        if F.order <= 81:
            pairs = list(itertools.product(F.elements(), repeat=2))
        else:
            pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
            pairs += [(0, b) for b in F.elements()] + [(a, 0) for a in F.elements()]
        units = F.units() if F.order <= 125 else rng.sample(F.units(), 200)
        for L in (F, twin):
            arith = L.arith()
            assert L.arith() is arith
            rep, code, zero, one, mul, add, pow, frob = arith
            assert (code(zero), code(one)) == (0, 1)
            assert [code(rep(a)) for a in L.elements()] == list(L.elements())
            for a, b in pairs:
                x, y = rep(a), rep(b)
                assert code(mul(x, y)) == L.mul(a, b), (L, a, b)
                assert code(add(x, y)) == L.add(a, b), (L, a, b)
            for a in L.elements():
                assert code(frob(rep(a))) == L.frob_iter(a, 1), (L, a)
            for a in units:
                for e in (-1, 2, q, (L.order - 1) // (q - 1)):
                    assert code(pow(rep(a), e)) == L.pow(a, e), (L, a, e)


def list_kernel_pow(F, a, e):
    """a^e by left-to-right square-and-multiply on list-kernel products."""
    out = F.one
    for bit in bin(e)[2:]:
        out = list_kernel_mul(F, out, out)
        if bit == "1":
            out = list_kernel_mul(F, out, a)
    return out


def _check_packed_ops(F, pairs):
    # the packed product and sum, through F.mul and arith(), and the field's
    # add, neg and sub on the digit loop; the oracles are the list kernel's
    # product and the coordinate sum and negation
    rep, code, _, _, mul, add, _, _ = F.arith()
    for a, b in pairs:
        x, y = rep(a), rep(b)
        assert F.mul(a, b) == code(mul(x, y)) == list_kernel_mul(F, a, b), (F, a, b)
        assert F.add(a, b) == code(add(x, y)) == oracle_add(F, a, b), (F, a, b)
        assert F.neg(b) == oracle_neg(F, b), (F, b)
        assert F.sub(a, b) == oracle_add(F, a, oracle_neg(F, b)), (F, a, b)


def test_packed_kernel_matches_list_kernel_on_every_pair(monkeypatch):
    # the table-free twins of F_{3^5}, F_{5^3}, F_{7^2} and F_{11^2}: every
    # pair, and every unit for pow, inv and the q-th power frob
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    for p, n in ((3, 5), (5, 3), (7, 2), (11, 2)):
        F = ext_make(PrimeField(p), n)
        assert F._exp is None and F._packed
        _check_packed_ops(F, itertools.product(F.elements(), repeat=2))
        rep, code, _, _, _, _, _, frob = F.arith()
        N = F.order - 1
        for a in F.units():
            for e in (0, 1, 2, p, N // (p - 1), N - 1, N + 3):
                assert F.pow(a, e) == list_kernel_pow(F, a, e), (F, a, e)
            assert F.pow(a, -1) == F.inv(a) == list_kernel_pow(F, a, N - 1), (F, a)
            assert list_kernel_mul(F, a, F.inv(a)) == 1, (F, a)
            assert code(frob(rep(a))) == F.frob_iter(a, 1) == list_kernel_pow(F, a, p)
        assert code(frob(rep(0))) == F.frob_iter(0, 1) == 0


def test_packed_kernel_matches_list_kernel_on_seeded_pairs():
    # 2000 seeded pairs each over fields above the table limit: slot widths
    # from 7 bits (F_{3^11}) to 19 (F_{251^3})
    rng = random.Random(33)
    for p, n in ((3, 11), (5, 7), (3, 20), (7, 7), (251, 3)):
        F = ext_make(PrimeField(p), n)
        assert F._exp is None and F._packed
        _check_packed_ops(
            F, [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
        )


def test_packed_kernel_at_the_slot_bound():
    # every digit p - 1 in both operands puts each slot k of the integer
    # product at its bound, min(k + 1, 2n - 1 - k)(p - 1)^2, before the
    # reduction adds up to (n - 1)(p - 1)^2 more to the low slots.  In all
    # five fields that lifts a low slot past n(p - 1)^2, and over F_{3^30},
    # F_{7^7} and F_{11^5} past 2^bit_length(n(p - 1)^2): slots sized for the
    # product alone would carry there
    for p, n in ((3, 40), (251, 3), (3, 30), (7, 7), (11, 5)):
        F = ext_make(PrimeField(p), n)
        top = F.order - 1
        rep, code, _, _, mul, add, pow, _ = F.arith()
        expected = list_kernel_mul(F, top, top)
        assert F.mul(top, top) == code(mul(rep(top), rep(top))) == expected, F
        assert F.pow(top, 2) == code(pow(rep(top), 2)) == expected, F
        assert F.add(top, top) == code(add(rep(top), rep(top))) == oracle_add(F, top, top)
        # -(p - 1) = 1 in every digit
        assert F.neg(top) == oracle_neg(F, top) == top // (p - 1), F


def test_zero_has_no_log():
    # a reader that forgets the zero check fails on None, and never reads 0
    # as 1 (whose log is 0); zech is None only where 1 + g^k = 0, k = N/2
    for build in TOWER_BUILDS:
        F = build()
        assert F._log[0] is None, F
        assert [k for k, z in enumerate(F._zech) if z is None] == [(F.order - 1) // 2], F


def test_zech_edge_cases(monkeypatch):
    builds = TOWER_BUILDS[:3] + [lambda: field_make(5, 2)]
    for build in builds:
        F = build()
        assert len(F._zech) == F.order - 1
        assert [k for k, z in enumerate(F._zech) if z is None] == [(F.order - 1) // 2]
        assert F.neg(0) == 0 and F.add(0, 0) == 0
        for a in F.units():
            assert F.add(a, F.neg(a)) == 0, (F, a)
            assert F.add(a, 0) == F.add(0, a) == a, (F, a)
            assert F.sub(a, a) == 0 and F.sub(a, 0) == a, (F, a)
            assert F.sub(0, a) == F.neg(a), (F, a)
    # F_81/F_9 against its table-free twin, whose add is the digit loop
    F = TOWER_BUILDS[2]()
    with monkeypatch.context() as m:
        m.setattr(ff, "_TABLE_LIMIT", 0)
        twin = TOWER_BUILDS[2]()
    assert twin == F and twin._zech is None
    for a in F.elements():
        assert F.neg(a) == twin.neg(a), a
        for b in F.elements():
            assert F.add(a, b) == twin.add(a, b), (a, b)
            assert F.sub(a, b) == twin.sub(a, b), (a, b)


@functools.lru_cache(maxsize=None)
def _large_field(p, s):
    return field_make(p, s)


# F_{3^10} and F_{5^6} are tabled, F_{3^11} is table-free; distributivity ties
# the digit add to the product of each
@settings(deadline=None)
@given(st.sampled_from([(3, 10), (5, 6), (3, 11)]), st.data())
def test_add_distributes_and_inverts_large_fields(ps, data):
    F = _large_field(*ps)
    a, b, c = (data.draw(st.integers(0, F.order - 1)) for _ in range(3))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    assert F.sub(F.add(a, b), b) == a


def test_frob_iter_is_iterated_q_power(monkeypatch):
    # frob_iter(a, i) against i rounds of x -> x*x*...*x (q factors of plain
    # mul), on each tower and on its table-free twin, which has the same codes
    for build in TOWER_BUILDS:
        F = build()
        with monkeypatch.context() as patch:
            patch.setattr(ff, "_TABLE_LIMIT", 0)
            twin = build()
        assert twin == F and twin._exp is None
        q = F.base.order
        for a in F.elements():
            powers = [a]
            for _ in range(F.degree):
                x, y = powers[-1], F.one
                for _ in range(q):
                    y = F.mul(y, x)
                powers.append(y)
            assert powers[-1] == a, (F, a)
            for i in range(-1, F.degree + 1):
                assert F.frob_iter(a, i) == powers[i % F.degree], (F, a, i)
                assert twin.frob_iter(a, i) == powers[i % F.degree], (F, a, i)


def test_table_free_field_above_limit(capsys):
    # F_{3^11} is above _TABLE_LIMIT, so modules over it run on table-free
    # arithmetic and Frobenius
    L = ext_make(PrimeField(3), 11)
    assert L.order > ff._TABLE_LIMIT and L._exp is None
    gamma = L.from_str("2,1")
    for g, delta in ((1, 1), (0, 2), (L.from_str("0,0,1"), L.from_str("1,2"))):
        dm = DrinfeldModule(L, gamma, g, delta)
        assert verify(dm, charpoly(dm)), (g, delta)
    classify(dm)
    argv = ["charpoly", "--p", "3", "--n", "11", "--gamma-T", "2,1",
            "--g", "1", "--delta", "1"]
    assert cli.main(argv) == 0
    assert '"charpoly"' in capsys.readouterr().out


def test_frobenius_is_additive_and_periodic():
    ext = ext_make(PrimeField(5), 2)
    for a in ext.elements():
        assert ext.frob_iter(a, 2) == a
        assert ext.frob_iter(a, 1) == ext.pow(a, 5)
        for b in ext.elements():
            assert ext.frob_iter(ext.add(a, b), 1) == ext.add(
                ext.frob_iter(a, 1), ext.frob_iter(b, 1)
            )


def test_coords_roundtrip():
    ext = ext_make(PrimeField(3), 2)
    for a in ext.elements():
        assert ext.from_coords(ext.coords(a)) == a
        assert ext.from_str(ext.to_str(a)) == a


def test_embed_is_identity_on_base_codes():
    ext = ext_make(PrimeField(5), 2)
    for a in range(5):
        assert ext.coords(a) == (a, 0)


def test_square_unit_count():
    # the Euler-criterion oracle against the squares themselves
    for p, s in [(3, 1), (5, 1), (3, 2)]:
        F = field_make(p, s)
        squares = [u for u in F.units() if is_square_unit(F, u)]
        assert len(squares) == (F.order - 1) // 2
        assert set(squares) == {F.mul(u, u) for u in F.units()}
    with pytest.raises(ZeroDivisionError):
        is_square_unit(F, 0)


def test_pth_root_inverts_p_power():
    F = field_make(3, 2)
    for a in F.elements():
        assert F.pth_root(F.pow(a, 3)) == a


def test_from_str_rejects_bad_digits():
    F = field_make(3, 1)
    with pytest.raises(FieldError):
        F.from_str("5")
    with pytest.raises(FieldError):
        F.from_str("x")
    ext = ext_make(F, 2)
    with pytest.raises(FieldError):
        ext.from_str("1,1,1")


def test_field_identity_checks():
    F3 = field_make(3, 1)
    F5 = field_make(5, 1)
    assert F3 == field_make(3, 1)
    assert F3 != F5
    with pytest.raises(IncompatibleFieldError):
        check_same_field(F3, F5)


def test_equal_fields_hash_equal():
    # fields built apart from the same base and degree are equal, towers
    # included, hash equal and so collapse to one element of a set; F_81 as
    # a tower over F_9 and as an extension of F_3 have different
    # presentations and stay apart
    def build():
        F3 = field_make(3, 1)
        F9 = field_make(3, 2)
        return [F3, field_make(5, 1), F9, ext_make(F3, 4), ext_make(F9, 2),
                ext_make(ext_make(F3, 2), 3)]

    first, second = build(), build()
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b), a
    assert len(set(first + second)) == len(first)
    assert ext_make(field_make(3, 2), 2) != ext_make(field_make(3, 1), 4)


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=24))
def test_mul_commutes_f25(a, b):
    ext = ext_make(PrimeField(5), 2)
    assert ext.mul(a, b) == ext.mul(b, a)


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=-6, max_value=6))
def test_pow_laws_f25(a, e):
    ext = ext_make(PrimeField(5), 2)
    assert ext.mul(ext.pow(a, e), ext.pow(a, 1 - e)) == a
