import importlib
import itertools
import math
from collections import Counter

import pytest

from drinfeld2 import (
    CharPoly,
    DrinfeldModule,
    Poly,
    PolyDomainError,
    RealizationBoundError,
    Verdict,
    charpoly,
    chi_census,
    chi_formula,
    euler_poincare,
    ext_make,
    field_make,
    formula_total,
    full_report,
    least_irreducible_poly,
    monic_irreducibles,
    realize,
    weil_admissible,
)
from drinfeld2 import census, cli, ff, frobenius, polyring
from drinfeld2.census import CSV_HEADER, candidate_pairs, csv_row, formula_case
from oracles import (
    coset_representatives, first_root, is_square_unit, poly_census_pass, pow_mod,
    proved_counts, weil_verdict,
)

F3 = field_make(3, 1)
F5 = field_make(5, 1)
T3 = Poly.x(F3)
T5 = Poly.x(F5)
# the benchmark's realize_sweep shapes (q, d, m), all with |L| <= 125
REALIZE_SHAPES = (
    (3, 1, 2), (3, 1, 3), (3, 3, 1), (5, 1, 2), (7, 1, 2), (7, 2, 1),
    (9, 1, 1), (3, 1, 4), (5, 3, 1), (9, 2, 1),
)

# the benchmark's census_grid shapes, every (q, d, m) with a grid of at most
# 3000 candidates, and the (q, d, m) rows of the README's realization table
GRID_SHAPES = [
    (q, d, m)
    for q in (3, 5, 7, 9)
    for d in (1, 2, 3, 4)
    for m in range(1, 13)
    if q ** (m * d // 2 + 1) * (q - 1) <= 3000
]
README_SHAPES = (
    (5, 1, 7), (3, 1, 9), (3, 1, 8), (5, 1, 5), (5, 1, 4), (7, 1, 3),
    (3, 1, 6), (3, 2, 3), (3, 3, 2), (5, 2, 2), (9, 1, 3),
)


def grid_field(q):
    return field_make(3, 2) if q == 9 else field_make(q, 1)


def dense_pool(base, d):
    """The first three monic irreducibles of degree d with no zero
    coefficient, the P that the benchmark's family workloads draw."""
    dense = (P for P in monic_irreducibles(base, d) if all(P.coeffs))
    return list(itertools.islice(dense, 3))


def test_case_1_counts_q3():
    report = full_report(T3, 1)
    assert (report.ordinary_count, report.ss2_count) == (4, 2)
    assert (report.ss3_count, report.ss4_count) == (0, 0)
    assert report.total == 6
    assert formula_total(3, 1, 1) == 6


def test_case_1_counts_q5():
    report = full_report(T5, 1)
    assert report.total == 20
    assert formula_total(5, 1, 1) == 20  # (q-1)(q - 1 + 1)


def test_formula_case_partition():
    assert formula_case(1, 1) == 1
    assert formula_case(1, 2) == 2
    assert formula_case(2, 2) == 3
    assert formula_case(2, 1) is None
    assert formula_total(3, 2, 1) is None
    assert chi_formula(3, 2, 1) is None


def test_floor_convention_at_m1():
    # the (m-2)d/2 bracket goes negative at m = 1; floor of -1/2 is -1,
    # so the corresponding power is q^0 = 1 and case 1 gives 6 for q = 3
    assert formula_total(3, 1, 1) == (3 - 1) * (3 - 1 + 1)


def test_counts_stable_across_P_of_equal_degree():
    totals = set()
    chis = set()
    for c0 in (0, 1, 2):
        P = Poly(F3, (c0, 1))
        report = full_report(P, 2)
        totals.add(
            (report.ordinary_count, report.ss2_count, report.ss3_count,
             report.ss4_count)
        )
        chis.add(chi_census(P, 2)[0])
    assert len(totals) == 1
    assert len(chis) == 1


def test_counts_stable_across_degree2_P():
    from drinfeld2 import monic_irreducibles

    counts = set()
    for P in list(monic_irreducibles(F3, 2))[:2]:
        report = full_report(P, 1)
        counts.add(report.total)
    assert len(counts) == 1


def test_reducible_P_rejected():
    from drinfeld2 import PolyDomainError

    with pytest.raises(PolyDomainError):
        full_report(T3 * T3, 1)


def test_realization_matches_admissibility_q3_m1():
    realized, admissible, ordinary, missing = realize(T3, 1)
    assert realized == admissible
    assert missing == []


def test_realization_matches_admissibility_q3_m2():
    realized, admissible, ordinary, missing = realize(T3, 2)
    assert realized <= admissible
    assert missing == []


def test_realize_rejects_bad_P_before_sweeping():
    # a P without a root in L, and a P whose sweep would cover all of F_81
    for P, m in ((Poly(F3, (1, 2, 0, 1)) * Poly(F3, (1, 0, 1)), 1), (T3 * T3, 2)):
        with pytest.raises(PolyDomainError, match="monic irreducible"):
            realize(P, m)


def test_single_pass_matches_weil_admissible_oracle():
    # oracle: the public, checked weil_admissible on every candidate, and the
    # per-module Euler-Poincare generator for the chi groups
    for base in (F3, F5, field_make(3, 2)):
        q = base.order
        for d in (1, 2):
            P = least_irreducible_poly(base, d)
            for m in (1, 2, 3):
                if q ** (m * d // 2 + 1) * (q - 1) > 500:
                    continue
                oracle = {}
                chi = {}
                for c, mu in candidate_pairs(P, m):
                    c = Poly(base, c)
                    verdict = weil_admissible(c, mu, P, m)
                    if verdict.is_admissible():
                        oracle[(c.coeffs, mu)] = verdict
                        key = euler_poincare(CharPoly(c, mu, P, m)).coeffs
                        chi.setdefault(key, []).append((c.coeffs, mu))
                tally = Counter(oracle.values())
                expected = tuple(tally[v] for v in Verdict if v.is_admissible())
                report = full_report(P, m)
                counts = (report.ordinary_count, report.ss2_count,
                          report.ss3_count, report.ss4_count)
                assert counts == expected, (q, d, m)
                assert report.chi_distinct_enumerative == len(chi), (q, d, m)
                assert chi_census(P, m) == (len(chi), chi), (q, d, m)
                if q ** (m * d) <= 81:
                    _, admissible, ordinary, _ = realize(P, m)
                    assert admissible == set(oracle), (q, d, m)
                    assert ordinary == {
                        k for k, v in oracle.items() if v is Verdict.ORDINARY
                    }, (q, d, m)


def test_realize_matches_full_sweep_oracle():
    # oracle: every module (gamma, g, delta) with g in L and delta in L^*,
    # gamma the first root of P in L, through the public module and charpoly
    for base in (F3, F5, field_make(7, 1), field_make(3, 2)):
        q = base.order
        for d, m in itertools.product((1, 2, 3, 4), repeat=2):
            if q ** (m * d) > 81:
                continue
            ext = ext_make(base, m * d)
            pool = 1 if ext.order == 81 else 3
            for P in itertools.islice(monic_irreducibles(base, d), pool):
                gamma = first_root(ext, P)
                oracle = set()
                for g in ext.elements():
                    for delta in ext.units():
                        cp = charpoly(DrinfeldModule(ext, gamma, g, delta))
                        oracle.add((cp.c.coeffs, cp.mu))
                realized, admissible = realize(P, m)[:2]
                assert realized == oracle, (q, d, m, P.coeffs)
                # every admissible class is realized, so the census's
                # admissible set is the realized one
                assert admissible == oracle, (q, d, m, P.coeffs)


def twist_orbit_sweep(P, m):
    """census._sweep's keys from one module per constant-twist orbit, with no
    Frobenius orbits and no F_q^* scaling: (q - 1)(|L| - 1) +
    gcd(q^2 - 1, |L| - 1) charpolys."""
    base = P.field
    q = base.order
    ext = ext_make(base, m * int(P.deg))
    gamma = first_root(ext, P)
    points = itertools.chain(
        itertools.product(
            (0,),
            coset_representatives(ext, math.gcd(q * q - 1, ext.order - 1)),
        ),
        itertools.product(coset_representatives(ext, q - 1), ext.units()),
    )
    realized = set()
    for g, delta in points:
        c, mu = frobenius._charpoly(ext, gamma, g, delta)
        realized.add((c.coeffs, mu))
    return realized


def test_sweep_matches_twist_orbit_oracle(monkeypatch):
    # |L| = 243 to 729, where the full-sweep oracle is too slow; d > 1 tells
    # the orbits of x -> x^(q^d) from those of x -> x^q
    monkeypatch.setenv(census.REALIZE_BOUND_ENV, "729")
    for q, d, m in ((3, 1, 5), (9, 1, 3), (7, 3, 1), (3, 2, 3), (3, 3, 2)):
        base = field_make(3, 2) if q == 9 else field_make(q, 1)
        P = least_irreducible_poly(base, d)
        assert census._sweep(P, m) == twist_orbit_sweep(P, m), (q, d, m)
    # a table-free L, where the sweep's powers of the generator are
    # square-and-multiply
    P = least_irreducible_poly(F3, 2)
    with monkeypatch.context() as patch:
        patch.setattr(ff, "_TABLE_LIMIT", 0)
        assert census._sweep(P, 2) == twist_orbit_sweep(P, 2)


def test_sweep_matches_twist_orbit_oracle_at_c_zero(monkeypatch):
    # P = T families whose sweep has c = 0 keys, where an F_q^* orbit has no
    # point with c monic and may be kept as several points: the c = 0 keys as
    # they are, mu as codes of F_q, and every key set closed under
    # (c, mu) -> (u c, u^2 mu)
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    families = (((5, 1), 4, {2, 3}), ((3, 2), 2, {4, 5, 7, 8}), ((3, 1), 2, {1}))
    for (p, s), m, at_zero in families:
        base = field_make(p, s)
        P = Poly.x(base)
        keys = census._sweep(P, m)
        assert keys == twist_orbit_sweep(P, m), (p, s, m)
        assert {mu for c, mu in keys if c == ()} == at_zero, (p, s, m)
        for u in base.units():
            scaled = {
                (Poly(base, c).scale(u).coeffs, base.mul(base.mul(u, u), mu))
                for c, mu in keys
            }
            assert scaled == keys, (p, s, m, u)


def sweep_weights(ext, gamma, d):
    """{(c coefficients, mu): modules} from representatives over L = ext,
    gamma of degree d, each weighted by the modules it stands for: a g = 0
    constant-twist coset representative by the size
    (|L| - 1)/gcd(q^2 - 1, |L| - 1) of its coset, and a g = 1 representative
    whose delta has an orbit of length l under x -> x^(q^d) by
    l (|L| - 1)/(q - 1) at each of its q - 1 scaled keys."""
    base = ext.base
    q = base.order
    gen, N = ext._least_generator(), ext.order - 1
    weights = Counter()
    cosets = math.gcd(q * q - 1, N)
    for i in range(cosets):
        c, mu = frobenius._charpoly(ext, gamma, 0, ext.pow(gen, i))
        weights[(c.coeffs, mu)] += N // cosets
    seen = set()
    for k in range(N):
        if k in seen:
            continue
        orbit = {k * q ** (d * i) % N for i in range(ext.degree // d)}
        seen |= orbit
        c, mu = frobenius._charpoly(ext, gamma, ext.one, ext.pow(gen, k))
        for u in base.units():
            key = (c.scale(u).coeffs, base.mul(base.mul(u, u), mu))
            weights[key] += len(orbit) * N // (q - 1)
    return weights


def test_sweep_weights_count_every_module(monkeypatch):
    # on the benchmark's realize shapes (q, d, m), all with |L| <= 125, the
    # weighted representatives give the sweep's keys and, key by key, the
    # counts of one charpoly per module (gamma the sweep's root of P)
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    for q, d, m in REALIZE_SHAPES:
        base = field_make(3, 2) if q == 9 else field_make(q, 1)
        P = dense_pool(base, d)[0]
        ext = ext_make(base, m * d)
        gamma = first_root(ext, P)
        weights = sweep_weights(ext, gamma, d)
        assert set(weights) == census._sweep(P, m), (q, d, m)
        assert sum(weights.values()) == ext.order * (ext.order - 1), (q, d, m)
        per_module = Counter()
        for g in ext.elements():
            for delta in ext.units():
                c, mu = frobenius._charpoly(ext, gamma, g, delta)
                per_module[(c.coeffs, mu)] += 1
        assert weights == per_module, (q, d, m)


def test_realize_computes_one_charpoly_per_frobenius_orbit(monkeypatch, record_calls):
    # over F_625: 164 orbits of x -> x^5 on L^* (Burnside:
    # (624 + 4 + 24 + 4)/4) at g = 1, plus 4 orbits of k -> 5k on
    # Z/gcd(6, 624) = Z/6 ({0}, {1, 5}, {2, 4}, {3}) at g = 0; one module per
    # constant-twist orbit would be 2520
    monkeypatch.setenv(census.REALIZE_BOUND_ENV, "625")
    charpolys = record_calls(frobenius, "_charpoly")
    tabled = realize(T5, 4)
    realized, admissible, _, missing = tabled
    assert len(charpolys) == 168
    assert realized == admissible and len(realized) == 286
    assert missing == []
    # the same orbits and keys without field tables
    charpolys.clear()
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    assert realize(T5, 4) == tabled
    assert len(charpolys) == 168


def test_sweep_covers_g0_by_one_charpoly_per_frobenius_orbit(monkeypatch, record_calls):
    # at g = 0 the sweep computes one charpoly per orbit of k -> k q^d on
    # Z/gcd(q + 1, |L| - 1), the classes of delta = gen^k modulo the
    # (q+1)-th powers, and those charpolys scaled as (u c, u^2 mu), u in
    # F_q^*, are exactly the keys of (gamma, 0, delta) over all delta in L^*
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    charpolys = record_calls(frobenius, "_charpoly")
    shapes = (
        (3, 1, 1, 2), (3, 1, 1, 3), (3, 1, 1, 4), (3, 1, 2, 2), (5, 1, 1, 2),
        (5, 1, 3, 1), (7, 1, 2, 1), (3, 2, 1, 1), (3, 2, 1, 2), (3, 2, 2, 1),
    )
    for limit in (ff._TABLE_LIMIT, 0):
        monkeypatch.setattr(ff, "_TABLE_LIMIT", limit)
        for p, s, d, m in shapes:
            base = field_make(p, s)
            q = base.order
            P = least_irreducible_poly(base, d)
            charpolys.clear()
            census._sweep(P, m)
            at_zero = [args for args in charpolys if args[2] == 0]
            ext, gamma = at_zero[0][:2]
            classes = math.gcd(q + 1, ext.order - 1)
            orbits = {
                frozenset(k * q ** (d * i) % classes for i in range(m))
                for k in range(classes)
            }
            assert len(at_zero) == len(orbits), (p, s, d, m, limit)
            scaled = set()
            for args in at_zero:
                c, mu = frobenius._charpoly(*args)
                for u in base.units():
                    scaled.add((c.scale(u).coeffs, base.mul(base.mul(u, u), mu)))
            brute = set()
            for delta in ext.units():
                cp = charpoly(DrinfeldModule(ext, gamma, 0, delta))
                brute.add((cp.c.coeffs, cp.mu))
            assert scaled == brute, (p, s, d, m, limit)


def test_realize_searches_for_the_generator_once(monkeypatch, record_calls):
    # the table build and the sweep read the one generator L keeps: a
    # realize over F_81 searches for it once, with tables or without
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    searches = record_calls(ff.ExtensionField, "_least_generator")
    tabled = realize(T3, 4)
    assert [args[0].order for args in searches] == [81]
    assert searches[0][0]._zech is not None
    searches.clear()
    monkeypatch.setattr(ff, "_TABLE_LIMIT", 0)
    assert realize(T3, 4) == tabled
    assert [args[0].order for args in searches] == [81]
    assert searches[0][0]._zech is None


def test_realize_builds_no_chi_key(monkeypatch, record_calls):
    # realize reads the admissible map alone: no census pass and no chi
    # entry looked up, while full_report keys every admissible candidate
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    passes = record_calls(census, "_census_pass")
    lookups = record_calls(census, "getitem")
    P, m = T3 + Poly.one(F3), 4
    result = realize(P, m)
    assert (passes, lookups) == ([], [])
    # the recorders see the calls they pin: chi is one row lookup per
    # coefficient of c, and the entries from len(c) upward are those of the
    # chi of c = 0, so an admissible (c, mu) makes len(c) lookups; and the
    # census pass gives the same admissible map
    _, _, admissible = census._census_pass(P, m)
    assert len(passes) == 1
    assert len(lookups) == sum(len(c) for c, _ in admissible)
    assert result == census._against_admissible(census._sweep(P, m), admissible)


def test_realize_on_readme_rows(monkeypatch):
    # the README's tabled realization rows (q, d, m, total), least P: every
    # admissible class is realized, and nothing else
    monkeypatch.setenv(census.REALIZE_BOUND_ENV, str(3**9))
    rows = (
        (3, 1, 9, 326), (3, 1, 8, 261), (5, 1, 5, 404), (5, 1, 4, 286),
        (7, 1, 3, 258), (3, 1, 6, 91), (3, 2, 3, 115), (3, 3, 2, 129),
        (5, 2, 2, 332), (9, 1, 3, 584),
    )
    assert [row[:3] for row in rows] == list(README_SHAPES[1:])
    for q, d, m, total in rows:
        P = least_irreducible_poly(grid_field(q), d)
        realized, admissible, _, missing = realize(P, m)
        assert (realized == admissible, missing) == (True, []), (q, d, m)
        assert len(admissible) == total, (q, d, m)


def test_sweep_makes_no_polynomial_products(monkeypatch, record_calls):
    # the charpoly rows and the F_q^*-scaled keys are coefficient lists:
    # no Poly product and no Poly scaling in the sweep over F_125
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    products = record_calls(Poly, "__mul__")
    scalings = record_calls(Poly, "scale")
    P = least_irreducible_poly(F5, 3)
    assert len(census._sweep(P, 1)) == 100
    assert (products, scalings) == ([], [])
    # the recorders see the calls they pin
    T5.scale(2) * T5
    assert (len(products), len(scalings)) == (1, 1)


def test_coset_representatives(monkeypatch):
    # k = gcd(q^2 - 1, |L| - 1) gives the g = 0 constant-twist classes of
    # the twist-orbit oracle; k = q - 1 checks the function alone
    fields = [
        ext_make(F3, 2),
        ext_make(F3, 3),
        ext_make(F3, 4),
        ext_make(F5, 3),
        ext_make(field_make(3, 2), 2),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(ff, "_TABLE_LIMIT", 0)
        fields.append(ext_make(F3, 4))  # table-free
    for ext in fields:
        q = ext.base.order
        for k in (q - 1, math.gcd(q * q - 1, ext.order - 1)):
            reps = coset_representatives(ext, k)
            assert len(reps) == k, (ext, k)
            powers = {ext.pow(u, k) for u in ext.units()}
            for x, y in itertools.combinations(reps, 2):
                assert ext.mul(x, ext.inv(y)) not in powers, (ext, k, x, y)


def test_full_report_walks_grid_once(capsys, record_calls):
    walks = record_calls(census, "candidate_pairs")
    checks = record_calls(polyring, "is_irreducible")
    report = full_report(T3, 2, do_realize=True)
    assert (report.realized_distinct, report.realized_ordinary_coverage) == (15, 1.0)
    assert (len(walks), len(checks)) == (1, 1)
    walks.clear()
    checks.clear()
    realize(T3, 2)
    assert (len(walks), len(checks)) == (1, 1)
    walks.clear()
    checks.clear()
    code = cli.main(["realize", "--p", "3", "--P", "T", "--m", "2", "--strict"])
    assert (len(walks), len(checks)) == (1, 1)
    assert code == 3
    # the stdout of this command in the golden CLI corpus
    assert capsys.readouterr().out == (
        '{\n  "q": 3,\n  "d": 1,\n  "m": 2,\n  "P": "T",\n  "case": 2,\n'
        '  "ordinary_count": 10,\n  "ss2_count": 0,\n  "ss3_count": 3,\n'
        '  "ss4_count": 2,\n  "total": 15,\n  "formula_total": 6,\n'
        '  "realized_distinct": 15,\n  "realized_ordinary_coverage": 1.0,\n'
        '  "chi_distinct_enumerative": 9,\n  "chi_formula": 6,\n'
        '  "discrepancies": [\n'
        '    "formula_total 6 != enumerative total 15",\n'
        '    "chi_formula 6 != enumerative chi count 9"\n  ]\n}\n'
    )


def test_full_report_raises_P_to_the_m_once(record_calls):
    # one raise for the verdicts and the chi groups together, not one per
    # candidate
    P, m = T3 + Poly.one(F3), 3
    raises = record_calls(Poly, "__pow__")
    report = full_report(P, m)
    assert report.total > 0
    assert [(f.coeffs, e) for f, e in raises].count((P.coeffs, m)) == 1


def test_full_report_does_per_c_work_once_per_c(monkeypatch, record_calls):
    # no c costs a list product or a division, and no squarefree split runs:
    # the verdicts are read off the top of the discriminant and constants.
    # Beyond the products of the family check and P^m, the run makes exactly
    # S^2 and one P h per multiple of P in the grid, and nothing else.
    P, m = T3 + Poly.one(F3), 4
    S = (P * P).coeffs  # md = 4: S = P^(m/2)
    # the package re-exports the function `classify` under the module's name
    classify = importlib.import_module("drinfeld2.classify")
    products = record_calls(ff, "_list_mul")
    divisions = record_calls(ff, "_list_divmod")
    splits = record_calls(ff, "_list_squarefree")  # what conductor_split runs
    cs = {}  # id -> c coefficients, kept alive so no other list reuses an id
    walk = census.candidate_pairs

    def recorded(*args):
        for c, mu in walk(*args):
            cs[id(c)] = c
            yield c, mu

    monkeypatch.setattr(census, "candidate_pairs", recorded)
    census._check_family(P, m)
    P**m
    fixed = len(products)  # the products of the family check and P^m
    products.clear()
    divisions.clear()
    report = full_report(P, m)

    def takes_a_c(calls):
        return [args for args in calls if any(cs.get(id(x)) is x for x in args)]

    assert report.ss3_count > 0 and splits == []
    assert len(cs) == 3 ** 3
    assert takes_a_c(products) == [] and takes_a_c(divisions) == []
    # k = md/2 = 2, so the multiples P h have deg h <= k - d = 1
    extra = [(tuple(a), tuple(b)) for _, a, b in products[fixed:]]
    assert extra == [(S, S)] + [
        (h, P.coeffs) for h in itertools.product(range(3), repeat=2)
    ]
    # the recorders see the calls they pin
    c = Poly(F3, (1, 2, 1))
    cs[id(c.coeffs)] = c.coeffs
    assert weil_admissible(c, 2, P, m) is Verdict.SUPERSINGULAR_3
    assert len(takes_a_c(divisions)) == 1
    classify.endomorphism_order(CharPoly(T3, 1, P, m))
    assert len(splits) == 1


def test_census_pass_builds_no_poly_per_candidate(record_calls):
    # the walk yields each c as its coefficient tuple, so only the raise of
    # P^m builds Polys (at least its result, which shows the recorder sees
    # them): none per c and none per (c, mu), of the 5^4 c's
    P, m = Poly(F5, (1, 1)), 6
    built = record_calls(Poly, "__init__")
    report = census._census_pass(P, m)[0]
    assert report.total > 0
    assert 1 <= len(built) <= 2 * m.bit_length() + 1, len(built)


def test_census_pass_runs_no_euler_criterion(record_calls):
    # a supersingular verdict is read off constants, so the pass raises
    # nothing to a power modulo P: no Euler criterion in A/P, per mu or per c
    powmods = record_calls(ff, "_list_powmod")
    families = (
        (T3, 4), (T3 + Poly.one(F3), 3), (Poly(F3, (1, 0, 1)), 2),
        (Poly(F5, (2, 0, 1)), 2), (T5, 3),
    )
    for P, m in families:
        report = census._census_pass(P, m)[0]
        assert report.ss2_count + report.ss3_count + report.ss4_count > 0
    assert powmods == []
    # the recorder sees the calls it pins
    ff._list_powmod(F3, [2], 2, T3.coeffs)
    assert len(powmods) == 1


def test_census_pass_matches_poly_pass_oracle():
    # every census_grid shape (grid of at most 3000 candidates), which
    # includes every realize_sweep shape, each with all the P of its pool:
    # the chi groups and the admissible map agree with the Poly pass, dict
    # and list order included, and each shape of a c divisible by P is
    # reached: with v = v_P(c), 2v < m (never admissible), 2v = m
    # (c = lambda P^(m/2), lambda != 0), and c = 0 for m odd and m even
    grid_shapes = [
        (q, d, m)
        for q in (3, 5, 7, 9)
        for d in (1, 2, 3, 4)
        for m in range(1, 13)
        if q ** (m * d // 2 + 1) * (q - 1) <= 3000
    ]
    assert len(grid_shapes) == 48 and set(REALIZE_SHAPES) <= set(grid_shapes)
    branches, families = Counter(), 0
    for q, d, m in grid_shapes:
        base = field_make(3, 2) if q == 9 else field_make(q, 1)
        for P in dense_pool(base, d):
            groups, admissible = census._census_pass(P, m)[1:]
            oracle_groups, oracle_admissible = poly_census_pass(P, m)
            assert list(groups.items()) == list(oracle_groups.items()), (q, P, m)
            assert list(admissible.items()) == list(oracle_admissible.items()), (q, P, m)
            families += 1
            for coeffs in itertools.product(range(q), repeat=m * d // 2 + 1):
                c = Poly(base, coeffs)
                if c.is_zero():
                    branches["c = 0, m %s" % ("odd" if m % 2 else "even")] += 1
                    continue
                v = 0
                while P.divides(c):
                    c, v = c // P, v + 1
                if v:
                    branches["2v < m" if 2 * v < m else "2v = m" if 2 * v == m
                             else "2v > m, c != 0"] += 1
    assert families == 128
    # P^v | c != 0 gives vd <= deg c <= md/2, so only c = 0 has 2v > m
    assert set(branches) == {"2v < m", "2v = m", "c = 0, m odd", "c = 0, m even"}, branches


def test_verdicts_match_squarefree_split_oracle():
    # the pass's admissible map and weil_admissible against the squarefree
    # split oracle on every candidate of 62 families, with every branch of
    # the P-adic test reached: disc = P^k u, P coprime to u.  The oracle's
    # verdicts also obey the closed form: an admissible supersingular
    # candidate has c in {0} u F_q^* P^(m/2), any other c divisible by P is
    # never admissible, and m, d both even leave no SUPERSINGULAR_3
    branches, valuations, families, shapes = Counter(), Counter(), 0, Counter()
    for base in (F3, F5, field_make(7, 1), field_make(3, 2)):
        q = base.order
        for d in (1, 2, 3):
            for P in itertools.islice(monic_irreducibles(base, d), 2):
                for m in range(1, 7):
                    if q ** (m * d // 2 + 1) * (q - 1) > 800:
                        continue
                    oracle = {}
                    Pm = P**m
                    half = P ** (m // 2)
                    for c, mu in candidate_pairs(P, m):
                        c = Poly(base, c)
                        verdict = weil_verdict(c, mu, P, m)
                        assert weil_admissible(c, mu, P, m) is verdict
                        if verdict.is_admissible():
                            oracle[(c.coeffs, mu)] = verdict
                        on_line = c.is_zero() or (m % 2 == 0 and c == half.scale(c.lc()))
                        if P.divides(c) and verdict.is_admissible():
                            assert on_line, (c, mu, P, m)
                            shapes["c = 0" if c.is_zero() else "c = lambda P^(m/2)"] += 1
                        if m % 2 == 0 and d % 2 == 0:
                            assert verdict is not Verdict.SUPERSINGULAR_3, (c, mu, P, m)
                            if on_line:
                                shapes["m, d even, " + verdict.value] += 1
                        disc = c * c - Pm.scale(base.mul(base.scalar(4), mu))
                        if disc.is_zero():
                            branches["disc = 0"] += 1
                            continue
                        if not P.divides(c) or (
                            disc.deg % 2 == 0 and is_square_unit(base, disc.lc())
                        ):
                            continue
                        k = 0
                        while P.divides(disc):
                            disc, k = disc // P, k + 1
                        valuations[k] += 1
                        if k % 2:
                            branches["k odd"] += 1
                        elif pow_mod(disc % P, (q**d - 1) // 2, P).is_one():
                            branches["k even, u square"] += 1
                        else:
                            branches["k even, u non-square"] += 1
                    assert census._census_pass(P, m)[2] == oracle, (q, P, m)
                    families += 1
    assert families == 62
    assert len(branches) == 4, branches
    assert set(range(1, 7)) <= set(valuations), valuations
    assert set(shapes) == {
        "c = 0", "c = lambda P^(m/2)",
        "m, d even, NOT_ADMISSIBLE", "m, d even, SUPERSINGULAR_4",
    }, shapes


def test_disc_top_matches_poly_discriminant():
    # S and R of every census_grid family, and the top of disc read off
    # c, P^m, S and R on every candidate against c^2 - 4 mu P^m formed with
    # Poly: the degree itself, not only its parity, and the leading
    # coefficient itself, not only its squareness, which is all the verdict
    # oracles can see
    branches, families = Counter(), 0
    for q, d, m in GRID_SHAPES:
        F = grid_field(q)
        k = m * d // 2
        for P in dense_pool(F, d):
            Pm = P**m
            S, R = census._sqrt_parts(F, Pm.coeffs)
            if m * d % 2:
                assert (S, R) == (None, None)
            else:
                root, rest = Poly(F, S), Poly(F, R)
                assert (root.deg, root.lc()) == (k, F.one), (q, P, m)
                assert Pm - root * root == rest, (q, P, m)
                assert rest.is_zero() or rest.deg < k, (q, P, m)
                # P^m is a square in A exactly when m is even
                assert (root == P ** (m // 2)) == (m % 2 == 0) == rest.is_zero(), (q, P, m)
            scaled = {mu: Pm.scale(F.mul(F.scalar(4), mu)) for mu in F.units()}
            for coeffs in itertools.product(range(q), repeat=k + 1):
                c = Poly(F, coeffs)
                square = c * c
                for mu in F.units():
                    disc = square - scaled[mu]
                    top = census._disc_top(F, c.coeffs, mu, Pm.coeffs, S, R)
                    expected = None if disc.is_zero() else (disc.deg, disc.lc())
                    assert top == expected, (q, P, m, c, mu)
                    if c.is_zero() or 2 * c.deg < m * d:
                        branches["2 deg c < md"] += 1
                    elif F.mul(c.lc(), c.lc()) != F.mul(F.scalar(4), mu):
                        branches["a^2 != 4 mu"] += 1
                    elif c != root.scale(c.lc()):
                        branches["r != 0"] += 1
                    else:
                        branches["r = 0, R != 0" if R else "disc = 0"] += 1
            families += 1
    assert families == 128
    assert set(branches) == {
        "2 deg c < md", "a^2 != 4 mu", "r != 0", "r = 0, R != 0", "disc = 0",
    }, branches


def test_proved_counts_match_census():
    # the counts proved in oracles.proved_counts against the enumeration, on
    # every census_grid shape with all the P of its pool and on the README
    # rows with the least P of each degree, as the CLI picks it
    families, odd = [], 0
    for q, d, m in GRID_SHAPES:
        families += [(q, d, m, P) for P in dense_pool(grid_field(q), d)]
        odd += m * d % 2
    for q, d, m in README_SHAPES:
        families.append((q, d, m, least_irreducible_poly(grid_field(q), d)))
    assert (len(families), odd) == (128 + 11, 20)
    for q, d, m, P in families:
        report = full_report(P, m)
        counts = {
            "total": report.total, "ss2": report.ss2_count,
            "ss3": report.ss3_count, "ss4": report.ss4_count,
        }
        proved = proved_counts(q, d, m)
        assert {key: counts[key] for key in proved} == proved, (q, P, m)


def test_realize_bound_refusal(monkeypatch):
    from drinfeld2.census import REALIZE_BOUND_ENV

    monkeypatch.setenv(REALIZE_BOUND_ENV, "100")
    with pytest.raises(RealizationBoundError):
        realize(T5, 4)


def test_realize_bound_checked_before_census_pass(monkeypatch, capsys, record_calls):
    # past the bound nothing walks the (c, mu) grid: |L| = 3^18 here would
    # mean 3^10 c's times 2 mu's before the refusal
    monkeypatch.delenv(census.REALIZE_BOUND_ENV, raising=False)
    walks = record_calls(census, "candidate_pairs")
    with pytest.raises(RealizationBoundError):
        full_report(T3, 18, do_realize=True)
    with pytest.raises(RealizationBoundError):
        realize(T3, 18)
    code = cli.main(["realize", "--p", "3", "--d", "1", "--m", "18"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: |L| = 387420489 exceeds the sweep bound 625 (set "
        "DRINFELD2_REALIZE_MAX to raise it)\n"
    )
    assert walks == []


def test_realize_bound_env_override(monkeypatch):
    from drinfeld2.census import REALIZE_BOUND_ENV, realize_bound

    monkeypatch.setenv(REALIZE_BOUND_ENV, "42")
    assert realize_bound() == 42


def test_chi_census_q3_m1():
    count, groups = chi_census(T3, 1)
    assert count == 3
    assert sum(len(v) for v in groups.values()) == 6


def test_chi_formula_value_q3_m1():
    # closed form gives 4 at (3, 1, 1); the enumerative count is 3, and the
    # full report must surface that as a discrepancy rather than fail
    assert chi_formula(3, 1, 1) == 4
    report = full_report(T3, 1)
    assert report.chi_distinct_enumerative == 3
    assert report.chi_formula == 4
    assert any("chi" in note for note in report.discrepancies)


def test_full_report_case2_discrepancy():
    report = full_report(T3, 2)
    assert report.total == 15
    assert report.formula_total == 6
    assert any("formula_total" in note for note in report.discrepancies)


def test_full_report_with_realization():
    report = full_report(T3, 1, do_realize=True)
    assert report.realized_distinct == 6
    assert report.realized_ordinary_coverage == 1.0
    assert not any("realized" in note for note in report.discrepancies)


def test_full_report_non_integer_formula_total():
    # case 1 at (q, d, m) = (3, 3, 1): (q - 1)(q^2 - q^-1 + 1) = 58/3, so
    # the report records the rational and gives no formula_total
    P = least_irreducible_poly(F3, 3)
    report = full_report(P, 1)
    assert report.case == 1 and report.total == 18
    assert report.formula_total is None
    assert report.discrepancies[0] == "formula_total is not an integer: 58/3"


def test_full_report_records_sweep_mismatches(monkeypatch, capsys):
    # a sweep that misses one ordinary class and realizes one candidate
    # outside the admissible set gets both noted, and coverage below 1
    P, m = T3, 2
    admissible = census._census_pass(P, m)[2]
    ordinary = sorted(k for k, v in admissible.items() if v is Verdict.ORDINARY)
    outside = next(
        (c, mu) for c, mu in candidate_pairs(P, m)
        if (c, mu) not in admissible
    )
    sweep = census._sweep
    assert sweep(P, m) == set(admissible)  # the real sweep realizes them all
    monkeypatch.setattr(
        census, "_sweep", lambda P, m: sweep(P, m) - {ordinary[0]} | {outside}
    )
    report = full_report(P, m, do_realize=True)
    assert report.realized_distinct == len(admissible)
    assert report.realized_ordinary_coverage == (len(ordinary) - 1) / len(ordinary)
    assert report.discrepancies[-2:] == [
        "realized classes outside the admissible set: %s" % [outside],
        "unrealized ordinary classes (c coeffs, mu): %s" % [ordinary[0]],
    ]
    code = cli.main(["realize", "--p", "3", "--P", "T", "--m", "2",
                     "--output", "plain", "--strict"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[-2:] == ["discrepancy: %s" % note for note in report.discrepancies[-2:]]


def test_csv_row_shape():
    report = full_report(T3, 1)
    header_cols = CSV_HEADER.split(",")
    row = csv_row(report)
    # the final quoted cell may itself contain no commas here
    assert len(row.split(",")) >= len(header_cols)
    assert row.startswith("3,1,1,1,")


def test_report_json():
    data = full_report(T3, 1).to_json()
    assert data["total"] == 6
    assert data["P"] == "T"
    assert data["case"] == 1


def test_least_irreducible_helper_feeds_census():
    P = least_irreducible_poly(F3, 2)
    report = full_report(P, 1)
    assert report.d == 2
    assert report.total > 0
