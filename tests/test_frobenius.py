import itertools
import random

from drinfeld2 import (
    CharPoly,
    DrinfeldModule,
    OrePoly,
    Poly,
    charpoly,
    conductor_split,
    euler_poincare,
    ext_make,
    field_make,
    least_irreducible_poly,
    linalg,
    monic_irreducibles,
    verify,
)
from drinfeld2 import ff
from drinfeld2.frobenius import _charpoly
from oracles import all_modules, first_root, matrix_charpoly

F3 = field_make(3, 1)
EXT1 = ext_make(F3, 1)
EXT9 = ext_make(F3, 2)


def oracle_charpoly(dm):
    """(c, mu) from the linear identity t^{2n} - Phi_c t^n + mu Phi_{P^m} = 0,
    solved over F_q by Gaussian elimination.

    The identity is underdetermined when F = t^n is nu * Phi_{P^(m/2)}; that
    case gives the square (X - nu P^(m/2))^2 and is detected first.
    """
    ext = dm.ext
    base = ext.base
    n = ext.degree
    m, d, P = dm.m, dm.d, dm.P
    bound = (m * d) // 2

    if m % 2 == 0:
        half = dm.phi(P ** (m // 2))
        F = OrePoly.tau_power(ext, n)
        for nu in base.units():
            if half.lscale(nu) == F:
                c = (P ** (m // 2)).scale(base.mul(base.scalar(2), nu))
                return CharPoly(c=c, mu=base.mul(nu, nu), P=P, m=m)

    # Columns of the F_q-linear system in (c_0..c_bound, mu):
    #   sum_j c_j * (Phi_{T^j} t^n)  -  mu * Phi_{P^m}  =  t^{2n}
    tau_n = OrePoly.tau_power(ext, n)
    cols = []
    tj = OrePoly.one(ext)
    phi_T = dm.phi_T()
    for _ in range(bound + 1):
        cols.append(tj * tau_n)
        tj = tj * phi_T
    cols.append(-dm.phi(P ** m))
    target = OrePoly.tau_power(ext, 2 * n)

    rows = []
    rhs = []
    for k in range(2 * n + 1):
        col_coords = [ext.coords(col[k]) for col in cols]
        tgt = ext.coords(target[k])
        for t in range(ext.degree):
            rows.append([cc[t] for cc in col_coords])
            rhs.append(tgt[t])
    sol = linalg.solve(base, rows, rhs, require_unique=True)
    assert sol[-1] != 0
    return CharPoly(c=Poly(base, sol[:-1]), mu=sol[-1], P=P, m=m)


def test_charpoly_matches_linear_solve_oracle_on_sweep(sweep):
    squares = 0
    for pairs in sweep.values():
        for dm, cp in pairs:
            assert cp == oracle_charpoly(dm), dm
            squares += cp.discriminant().is_zero()
    assert squares > 0  # the oracle's square branch is exercised


def test_charpoly_matches_linear_solve_oracle_over_F9():
    ext = ext_make(field_make(3, 2), 1)
    for dm in all_modules(ext):
        assert charpoly(dm) == oracle_charpoly(dm), dm


def brute_force_pairs(dm):
    """Every (c, mu) satisfying the Frobenius identity, by exhaustive search.

    Independent of any solver; intended for small m*d only.
    """
    base = dm.ext.base
    bound = (dm.m * dm.d) // 2
    found = []
    for coeffs in itertools.product(range(base.order), repeat=bound + 1):
        c = Poly(base, coeffs)
        for mu in base.units():
            if verify(dm, CharPoly(c=c, mu=mu, P=dm.P, m=dm.m)):
                found.append((c, mu))
    return found


def test_frozen_examples_against_brute_force():
    dm1 = DrinfeldModule(EXT1, 0, 1, 1)
    assert brute_force_pairs(dm1) == [(Poly.constant(F3, 2), 2)]
    cp1 = charpoly(dm1)
    assert (cp1.c, cp1.mu) == (Poly.constant(F3, 2), 2)

    dm2 = DrinfeldModule(EXT1, 0, 0, 1)
    assert brute_force_pairs(dm2) == [(Poly.zero(F3), 2)]
    cp2 = charpoly(dm2)
    assert (cp2.c, cp2.mu) == (Poly.zero(F3), 2)


def test_brute_force_oracle_exhaustive_n1():
    for dm in all_modules(EXT1):
        pairs = brute_force_pairs(dm)
        cp = charpoly(dm)
        assert (cp.c, cp.mu) in pairs
        if len(pairs) > 1:
            # only the quaternionic square case admits several witnesses
            assert cp.discriminant().is_zero()
        else:
            assert pairs == [(cp.c, cp.mu)]


def test_brute_force_oracle_sampled_n2():
    rng = random.Random(41)
    mods = list(all_modules(EXT9))
    for dm in rng.sample(mods, 60):
        pairs = brute_force_pairs(dm)
        cp = charpoly(dm)
        assert (cp.c, cp.mu) in pairs
        if len(pairs) > 1:
            assert cp.discriminant().is_zero()


def test_quaternionic_square_case():
    # gamma = 0, g = 0 over F_9: F = t^2 = Phi applied to T up to a unit
    dm = DrinfeldModule(EXT9, 0, 0, 1)
    cp = charpoly(dm)
    assert cp.discriminant().is_zero()
    assert cp.c == Poly(F3, (0, 2))  # 2T
    assert cp.mu == 1
    assert verify(dm, cp)


def test_verify_reads_P_to_the_m_off_the_charpoly(record_calls):
    # the charpoly forms P^m once, for verify as for the discriminant and
    # P_Phi(1), in either order
    dm = DrinfeldModule(EXT9, 0, 1, 1)  # P = T, m = 2
    raises = record_calls(Poly, "__pow__")
    cp = charpoly(dm)
    assert verify(dm, cp)
    cp.discriminant()
    cp.at_one()
    assert verify(dm, cp)
    assert [(f.coeffs, e) for f, e in raises] == [(dm.P.coeffs, dm.m)]


def test_degree_bound_holds_everywhere():
    for ext in (EXT1, EXT9):
        for dm in all_modules(ext):
            cp = charpoly(dm)
            assert cp.c.is_zero() or cp.c.deg <= (dm.m * dm.d) // 2
            assert cp.mu in range(1, F3.order)


def test_charpoly_values_and_split():
    dm = DrinfeldModule(EXT1, 0, 1, 1)
    cp = charpoly(dm)
    assert cp.discriminant() == Poly(F3, (1, 1))  # 1 + T
    assert (cp.P ** cp.m).scale(cp.mu) == Poly(F3, (0, 2))  # P_Phi(0) = 2T
    assert cp.at_one() == Poly(F3, (2, 2))
    assert euler_poincare(cp) == Poly(F3, (1, 1))
    g, w = conductor_split(cp)
    assert g.is_one() and w == Poly(F3, (1, 1))


def test_conductor_split_none_for_square():
    dm = DrinfeldModule(EXT9, 0, 0, 1)
    assert conductor_split(charpoly(dm)) is None


def test_charpoly_str_and_json():
    cp = charpoly(DrinfeldModule(EXT1, 0, 1, 1))
    assert "X^2" in str(cp)
    data = cp.to_json()
    assert data == {"c": "2", "mu": "2", "P": "T", "m": 1}


# ((p, s), n, d): L = F_{q^n} over F_q = F_{p^s}, and gamma a root in L of
# the least monic irreducible P of degree d over F_q
LAW_FIELDS = (
    ((3, 1), 4, 2),
    ((5, 1), 3, 1),
    ((7, 1), 2, 1),
    ((3, 2), 2, 1),
    ((3, 2), 3, 1),
)


def law_fields():
    for (p, s), n, d in LAW_FIELDS:
        base = field_make(p, s)
        ext = ext_make(base, n)
        yield ext, d, first_root(ext, least_irreducible_poly(base, d))


def test_charpoly_twist_law():
    # (g v, delta v^(q+1)) is a twist of (g, delta), and its charpoly is
    # (zeta^-1 c, zeta^-2 mu) with zeta = N_{L/F_q}(v) and q the base order
    rng = random.Random(11)
    for ext, _, gamma in law_fields():
        base = ext.base
        q = base.order
        for _ in range(10):
            g = rng.randrange(ext.order)
            delta = rng.randrange(1, ext.order)
            v = rng.randrange(1, ext.order)
            c, mu = _charpoly(ext, gamma, g, delta)
            zeta = ext.pow(v, (ext.order - 1) // (q - 1))
            inv = base.inv(zeta)
            twisted = _charpoly(
                ext, gamma, ext.mul(g, v), ext.mul(delta, ext.pow(v, q + 1))
            )
            expected = (c.scale(inv), base.mul(base.mul(inv, inv), mu))
            assert twisted == expected, (ext, g, delta, v)


def test_charpoly_frobenius_law():
    # x -> x^(q^d) on the coefficients fixes gamma in F_{q^d} and keeps the
    # charpoly
    rng = random.Random(12)
    for ext, d, gamma in law_fields():
        for _ in range(10):
            g = rng.randrange(ext.order)
            delta = rng.randrange(1, ext.order)
            conjugate = _charpoly(
                ext, gamma, ext.frob_iter(g, d), ext.frob_iter(delta, d)
            )
            assert conjugate == _charpoly(ext, gamma, g, delta), (ext, g, delta)


def test_charpoly_matches_matrix_oracle_on_sweep_shapes():
    # every (g, delta) of the benchmark's realize shapes (q, d, m) with
    # |L| <= 81, F_9 towers included; gamma a root of the first P of degree
    # d with no zero coefficient, so a0 = -(gamma/delta)^(q^i) is never 0
    shapes = (
        (3, 1, 2), (3, 1, 3), (3, 3, 1), (5, 1, 2), (7, 1, 2), (7, 2, 1),
        (9, 1, 1), (3, 1, 4), (9, 2, 1),
    )
    for q, d, m in shapes:
        base = field_make(3, 2) if q == 9 else field_make(q, 1)
        ext = ext_make(base, m * d)
        P = next(P for P in monic_irreducibles(base, d) if all(P.coeffs))
        gamma = first_root(ext, P)
        for g in ext.elements():
            for delta in ext.units():
                expected = matrix_charpoly(ext, gamma, g, delta)
                assert _charpoly(ext, gamma, g, delta) == expected, (q, d, m, g, delta)


def test_charpoly_matches_matrix_oracle_without_tables(monkeypatch):
    # a table-free charpoly costs about a millisecond, so F_81/F_9 takes
    # every delta at g in {0, 1} and every g at delta = 1, and F_27 every
    # (g, delta); gamma runs over a root of the least P of each degree
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    F27 = ext_make(F3, 3)
    L81 = ext_make(field_make(3, 2), 2)
    assert F27._zech is None and L81._zech is None and L81.base._zech is None
    cases = []
    for ext in (F27, L81):
        gammas = [
            first_root(ext, least_irreducible_poly(ext.base, d))
            for d in (1, ext.degree)
        ]
        if ext is F27:
            pairs = list(itertools.product(ext.elements(), ext.units()))
        else:
            pairs = [(g, 1) for g in ext.elements()]
            pairs += [(g, delta) for g in (0, 1) for delta in ext.units()]
        cases += [(ext, gamma, g, delta) for gamma in gammas for g, delta in pairs]
    assert len(cases) == 2 * 27 * 26 + 2 * (81 + 2 * 80)
    for case in cases:
        assert _charpoly(*case) == matrix_charpoly(*case), case


def test_short_products_match_matrix_oracle_without_tables(monkeypatch):
    # the motive product starts at A and multiplies row 1 alone on its last
    # step: over F_9 as a degree-1 extension of itself there is no step and
    # the trace is b, and over F_25/F_5 the first step is also the last; every
    # (g, delta), gamma a root of the least P of degree 1 and of degree n
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    L9 = ext_make(field_make(3, 2), 1)
    L25 = ext_make(field_make(5, 1), 2)
    assert L9._zech is None and L9.base._zech is None and L25._zech is None
    cases = []
    for ext in (L9, L25):
        gammas = {
            first_root(ext, least_irreducible_poly(ext.base, d))
            for d in (1, ext.degree)
        }
        pairs = list(itertools.product(ext.elements(), ext.units()))
        cases += [(ext, gamma, g, delta) for gamma in gammas for g, delta in pairs]
    assert len(cases) == 9 * 8 + 2 * 25 * 24
    for case in cases:
        assert _charpoly(*case) == matrix_charpoly(*case), case


def test_charpoly_matches_matrix_oracle_on_seeded_modules():
    # 200 seeded modules each over F_{3^9}, F_{5^6} and F_{9^3}
    rng = random.Random(15)
    for (p, s), n in (((3, 1), 9), ((5, 1), 6), ((3, 2), 3)):
        ext = ext_make(field_make(p, s), n)
        for _ in range(200):
            case = (
                ext,
                rng.randrange(ext.order),
                rng.randrange(ext.order),
                rng.randrange(1, ext.order),
            )
            assert _charpoly(*case) == matrix_charpoly(*case), case


# the fields L = F_{q^(md)} of the benchmark's realize shapes with |L| <= 81,
# as (p, s, n): L is a degree-n extension of F_{p^s}
SWEEP_FIELDS = ((3, 1, 2), (3, 1, 3), (5, 1, 2), (7, 1, 2), (3, 2, 1), (3, 1, 4), (3, 2, 2))


def test_tabled_charpoly_matches_matrix_oracle_at_zero_coefficients():
    # gamma = 0 (P = T) and every gamma in F_q^*, at g = 0 and g = 1, for
    # every delta: gamma = 0 makes a0 = 0 and g = 0 makes b = 0 at every
    # step, and the log of 1, which is 0, must stay apart from the zero
    # sentinel of the tabled charpoly
    for p, s, n in SWEEP_FIELDS:
        ext = ext_make(field_make(p, s), n)
        assert ext._zech is not None
        for gamma in range(ext.base.order):
            for g in (0, 1):
                for delta in ext.units():
                    case = (ext, gamma, g, delta)
                    assert _charpoly(*case) == matrix_charpoly(*case), case


def test_tabled_charpoly_matches_table_free_on_seeded_modules(monkeypatch):
    # 200 seeded modules each over F_{3^9}, F_{5^6} and F_{9^3}, with gamma,
    # g or both set to 0 in half of them, against the same field built
    # without tables
    rng = random.Random(22)
    for (p, s), n in (((3, 1), 9), ((5, 1), 6), ((3, 2), 3)):
        ext = ext_make(field_make(p, s), n)
        with monkeypatch.context() as patch:
            patch.setattr(ff, "_TABLE_LIMIT", 0)
            twin = ext_make(field_make(p, s), n)
        assert ext._zech is not None and twin._zech is None and twin == ext
        for i in range(200):
            gamma = 0 if i % 4 in (0, 2) else rng.randrange(ext.order)
            g = 0 if i % 4 in (1, 2) else rng.randrange(ext.order)
            delta = rng.randrange(1, ext.order)
            c, mu = _charpoly(ext, gamma, g, delta)
            c_free, mu_free = _charpoly(twin, gamma, g, delta)
            assert (c.coeffs, mu) == (c_free.coeffs, mu_free), (ext, gamma, g, delta)


def test_tabled_charpoly_calls_no_field_method(monkeypatch, record_calls):
    # over a tabled L the recurrence runs on discrete logs, and mu is one
    # exp lookup: no ExtensionField product, sum, power, inverse or
    # Frobenius, in L or in a base like F_9 that is itself an extension
    names = ("mul", "add", "pow", "inv", "frob_iter")
    builds = [lambda: ext_make(field_make(3, 2), 2), lambda: ext_make(field_make(5, 1), 3)]
    tabled = [build() for build in builds]
    with monkeypatch.context() as patch:
        patch.setattr(ff, "_TABLE_LIMIT", 0)
        free = [build() for build in builds]
    calls = {name: record_calls(ff.ExtensionField, name) for name in names}
    # codes below 81 lie in both fields
    rng = random.Random(5)
    cases = [
        (i, gamma, rng.randrange(81), rng.randrange(1, 81))
        for i in range(2) for gamma in (0, 1, 2, rng.randrange(81))
    ]
    expected = [_charpoly(tabled[i], *rest) for i, *rest in cases]
    assert all(calls[name] == [] for name in names), {k: len(v) for k, v in calls.items()}
    # the recorders see the calls they pin, on the table-free twins
    assert [_charpoly(free[i], *rest) for i, *rest in cases] == expected
    assert all(calls[name] for name in names), {k: len(v) for k, v in calls.items()}


def test_packed_charpoly_matches_tabled(monkeypatch):
    # F_{3^4} and F_{5^3} built without tables run the charpoly on the packed
    # kernel: every (g, delta) at gamma = 0, 1 and a root of the least P of
    # degree n, against the same field with its tables
    for p, n in ((3, 4), (5, 3)):
        tabled = ext_make(field_make(p, 1), n)
        with monkeypatch.context() as patch:
            patch.setattr(ff, "_TABLE_LIMIT", 0)
            packed = ext_make(field_make(p, 1), n)
        assert tabled._zech is not None and packed._zech is None and packed._packed
        gammas = (0, 1, first_root(tabled, least_irreducible_poly(tabled.base, n)))
        for gamma in gammas:
            for g in tabled.elements():
                for delta in tabled.units():
                    c, mu = _charpoly(tabled, gamma, g, delta)
                    c_packed, mu_packed = _charpoly(packed, gamma, g, delta)
                    assert (c.coeffs, mu) == (c_packed.coeffs, mu_packed), (p, n, gamma, g, delta)


def test_packed_charpoly_calls_no_list_kernel(record_calls):
    # over the table-free F_{3^11} the recurrence runs on packed ints: no
    # list-kernel product or division, no digit codec and no field method
    L = ext_make(F3, 11)
    tower = ext_make(field_make(3, 2), 6)
    assert L._zech is None and L._packed and tower._zech is None
    names = ("_list_mul", "_list_divmod", "_to_digits")
    calls = {name: record_calls(ff, name) for name in names}
    methods = ("mul", "add", "pow", "inv", "frob_iter")
    calls.update({name: record_calls(ff.ExtensionField, name) for name in methods})
    rng = random.Random(11)
    for _ in range(3):
        _charpoly(L, rng.randrange(L.order), rng.randrange(L.order), rng.randrange(1, L.order))
    assert all(v == [] for v in calls.values()), {k: len(v) for k, v in calls.items()}
    # the recorders see what they pin: the table-free tower F_{9^6} keeps
    # the list kernel and adds on the digit codec
    _charpoly(tower, 1, 2, 3)
    assert all(calls.values()), {k: len(v) for k, v in calls.items()}
