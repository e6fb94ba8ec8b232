import itertools
import json
import random
from fractions import Fraction

import pytest

from drinfeld2 import (
    DrinfeldModule,
    EndRingKind,
    IncompatibleFieldError,
    OrePoly,
    Poly,
    PolyDomainError,
    Verdict,
    charpoly,
    classify,
    endomorphism_order,
    ext_make,
    field_make,
    monic_irreducibles,
    supersingular,
    weil_admissible,
)

from drinfeld2 import ff
from drinfeld2.frobenius import CharPoly, _divisors
from oracles import (
    all_modules,
    constructive_products,
    first_root,
    scan_monic_divisors,
    tri_criterion_supersingular,
)

F3 = field_make(3, 1)
EXT1 = ext_make(F3, 1)
EXT9 = ext_make(F3, 2)
T = Poly.x(F3)


def test_tri_criterion_agrees_exhaustively(sweep):
    # supersingular reads P | c off the charpoly; the oracle also evaluates
    # Phi_P in L{t} and raises ConsistencyError unless its height and its
    # kernel agree with P | c.  Verdict and witness must match on every
    # module over F_3, F_9, F_5, F_25 and F_27
    L27 = ext_make(F3, 3)
    exhaustive = [pair for pairs in sweep.values() for pair in pairs]
    exhaustive += [(dm, charpoly(dm)) for dm in all_modules(L27)]
    supersingulars = 0
    for dm, cp in exhaustive:
        verdict = supersingular(dm, cp)
        assert verdict == tri_criterion_supersingular(dm, cp), dm
        supersingulars += verdict[0]
    assert (len(exhaustive), supersingulars) == (34720, 3272)
    # seeded modules over the module-query fields up to 3^9, gamma in a
    # random subfield so that d runs over the divisors of n; supersingular
    # computes the charpoly itself here
    rng = random.Random(26)
    for p, s, n in ((3, 1, 6), (3, 1, 7), (3, 1, 8), (3, 1, 9),
                    (5, 1, 4), (5, 1, 5), (5, 1, 6), (3, 2, 3)):
        L = ext_make(field_make(p, s), n)
        q = L.base.order
        for _ in range(6):
            k = rng.choice([k for k in range(1, n + 1) if n % k == 0])
            gamma = L.pow(rng.randrange(1, L.order), (L.order - 1) // (q**k - 1))
            dm = DrinfeldModule(L, gamma, rng.randrange(L.order),
                                rng.randrange(1, L.order))
            assert supersingular(dm) == tri_criterion_supersingular(dm, charpoly(dm)), dm


def test_classify_evaluates_no_phi_P(record_calls):
    # the verdict and the height come off the charpoly: no L{t} product
    phis = record_calls(DrinfeldModule, "phi")
    products = record_calls(OrePoly, "__mul__")
    classify(DrinfeldModule(EXT9, EXT9.from_coords((1, 1)), 4, 7))
    assert (len(phis), len(products)) == (0, 0)


def test_classify_raises_P_to_the_m_once(record_calls):
    # the discriminant and P_Phi(1) share one P^m, and the report's disc is
    # the one the conductor split read
    raises = record_calls(Poly, "__pow__")
    dm = DrinfeldModule(EXT9, 1, 4, 7)
    report = classify(dm)
    assert dm.m == 2
    assert [(f.coeffs, e) for f, e in raises].count((dm.P.coeffs, dm.m)) == 1
    assert report.disc is report.charpoly.discriminant()


def test_classify_raises_nothing_to_the_power_0(record_calls):
    # the squarefree split of the discriminant skips its factors of
    # multiplicity 1; P^m = T^2 is the one power left here.  Poly powers and
    # the split's powers both run on the kernel's _list_pow
    raises = record_calls(ff, "_list_pow")
    classify(DrinfeldModule(EXT9, 1, 4, 7))
    assert [e for _, _, e in raises] == [2]


def supersingular_js(ext, P):
    """The j in L = ext whose module is supersingular, gamma the first root
    of P: one module per j, (g, delta) = (0, 1) at j = 0 and (1, 1/j)
    otherwise."""
    gamma = first_root(ext, P)
    return [
        j for j in ext.elements()
        if supersingular(DrinfeldModule(
            ext, gamma, *((0, 1) if j == 0 else (1, ext.inv(j)))
        ))[0]
    ]


def gekeler_count(q, d):
    """The number of supersingular j for P of degree d over F_q."""
    if d % 2:
        return (q**d - q) // (q * q - 1) + 1
    return (q**d - 1) // (q * q - 1)


def test_supersingular_count_matches_gekeler():
    # Gekeler's count, the analogue of Deuring's for elliptic curves: over
    # L = F_{q^(2d)}, gamma a root of P of degree d, one module per j in L.
    # There are (q^d - 1)/(q^2 - 1) supersingular j for d even and
    # (q^d - q)/(q^2 - 1) + 1 for d odd, j = 0 among them exactly when d is
    # odd, and the mass sum of 1/|Aut| is (q^d - 1)/((q - 1)(q^2 - 1)), with
    # |Aut| = q^2 - 1 at j = 0 and q - 1 elsewhere
    for q, d in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3)):
        base = field_make(q, 1)
        ext = ext_make(base, 2 * d)
        for P in itertools.islice(monic_irreducibles(base, d), 2):
            found = supersingular_js(ext, P)
            count = gekeler_count(q, d)
            assert (len(found), 0 in found) == (count, d % 2 == 1), (q, d, P.coeffs)
            mass = sum(Fraction(1, q * q - 1 if j == 0 else q - 1) for j in found)
            assert mass == Fraction(q**d - 1, (q - 1) * (q * q - 1)), (q, d, P.coeffs)


def test_supersingular_js_lie_in_F_q_2d(monkeypatch):
    # as every supersingular elliptic j lies in F_{p^2}, every supersingular
    # j lies in F_{q^(2d)}: over a larger L the count does not grow and
    # x -> x^(q^(2d)) fixes each j.  The last two fields are table-free.
    cases = (
        (3, 1, 4, False), (3, 1, 6, False), (5, 1, 4, False), (7, 1, 4, False),
        (3, 2, 8, False), (3, 1, 4, True), (5, 1, 4, True),
    )
    for q, d, n, table_free in cases:
        with monkeypatch.context() as patch:
            if table_free:
                patch.setattr(ff, "_TABLE_LIMIT", 0)
            base = field_make(q, 1)
            ext = ext_make(base, n)
        assert (ext._exp is None) == table_free
        for P in itertools.islice(monic_irreducibles(base, d), 2):
            found = supersingular_js(ext, P)
            case = (q, d, n, P.coeffs)
            assert (len(found), 0 in found) == (gekeler_count(q, d), d % 2 == 1), case
            assert all(ext.frob_iter(j, 2 * d) == j for j in found), case


def test_supersingular_examples():
    assert supersingular(DrinfeldModule(EXT1, 0, 0, 1))[0] is True
    assert supersingular(DrinfeldModule(EXT1, 0, 1, 1))[0] is False


def test_weil_admissible_preconditions():
    with pytest.raises(PolyDomainError):
        weil_admissible(Poly.zero(F3), 0, T, 1)  # mu not a unit
    with pytest.raises(PolyDomainError):
        weil_admissible(Poly.zero(F3), 1, T * T, 1)  # P reducible
    with pytest.raises(PolyDomainError):
        weil_admissible(Poly.zero(F3), 1, T, 0)  # m < 1
    with pytest.raises(PolyDomainError):
        weil_admissible(Poly(F3, (0, 1)), 1, T, 1)  # deg c over the bound
    with pytest.raises(IncompatibleFieldError):
        weil_admissible(Poly(field_make(5, 1), (4,)), 1, T, 2)  # c over F_5
    for mu in (3, 7, -1):
        with pytest.raises(PolyDomainError):
            weil_admissible(Poly(F3, (1,)), mu, T, 2)  # mu not in F_3^*


def test_admissibility_table_for_q3_P_T_m1():
    # hand-checkable: ordinary (c, mu) in {1,2} x {1,2}; supersingular (0, mu)
    verdicts = {}
    for c0 in range(3):
        for mu in (1, 2):
            verdicts[(c0, mu)] = weil_admissible(Poly.constant(F3, c0), mu, T, 1)
    assert verdicts[(0, 1)] is Verdict.SUPERSINGULAR_2
    assert verdicts[(0, 2)] is Verdict.SUPERSINGULAR_2
    for c0 in (1, 2):
        for mu in (1, 2):
            assert verdicts[(c0, mu)] is Verdict.ORDINARY


def test_admissibility_matches_realization_over_f9():
    # every charpoly realized by an actual module must be admissible
    realized = set()
    for dm in all_modules(EXT9):
        cp = charpoly(dm)
        realized.add((cp.c, cp.mu, cp.P, cp.m))
    for c, mu, P, m in realized:
        assert weil_admissible(c, mu, P, m).is_admissible()


def test_verdict_helpers():
    assert Verdict.ORDINARY.is_admissible()
    assert not Verdict.NOT_ADMISSIBLE.is_admissible()


def test_endomorphism_order_frozen_example():
    cp = charpoly(DrinfeldModule(EXT1, 0, 1, 1))
    kind, g, omega, conductors, flagged = endomorphism_order(cp)
    assert kind is EndRingKind.MAXIMAL_ORDER
    assert g.is_one()
    assert omega == Poly(F3, (1, 1))
    assert conductors == [Poly.one(F3)]
    assert flagged == []


def test_endomorphism_order_quaternionic():
    cp = charpoly(DrinfeldModule(EXT9, 0, 0, 1))
    kind, g, omega, conductors, flagged = endomorphism_order(cp)
    assert kind is EndRingKind.QUATERNIONIC_CASE
    assert g is None and omega is None
    assert conductors == [] and flagged == []


def test_endomorphism_order_reconstruction_everywhere():
    seen = set()
    for dm in all_modules(EXT9):
        cp = charpoly(dm)
        key = (cp.c, cp.mu)
        if key in seen:
            continue
        seen.add(key)
        kind, g, omega, conductors, flagged = endomorphism_order(cp)
        if kind is EndRingKind.QUATERNIONIC_CASE:
            assert cp.discriminant().is_zero()
            continue
        assert g * g * omega == cp.discriminant()
        assert all(f.divides(g) for f in conductors)
        for f in flagged:
            assert cp.P.divides(f)
        if g.is_one():
            assert kind is EndRingKind.MAXIMAL_ORDER


def test_classification_report_json_serializes():
    report = classify(DrinfeldModule(EXT1, 0, 1, 1))
    text = json.dumps(report.to_json())
    data = json.loads(text)
    assert data["is_supersingular"] is False
    assert data["end_ring_kind"] == "MAXIMAL_ORDER"
    assert data["disc"] == "T+1"
    assert data["chi"] == "T+1"

    report2 = classify(DrinfeldModule(EXT9, 0, 0, 1))
    data2 = json.loads(json.dumps(report2.to_json()))
    assert data2["is_supersingular"] is True
    assert data2["end_ring_kind"] == "QUATERNIONIC_CASE"
    assert data2["conductor_g"] is None


def oracle_monic_divisors(g):
    """Every monic polynomial of degree <= deg g that divides g, by degree and
    then lexicographically on the coefficients, low degree first."""
    base = g.field
    out = [Poly.one(base)]
    for degree in range(1, int(g.deg) + 1):
        for tail in itertools.product(range(base.order), repeat=degree):
            cand = Poly(base, list(tail) + [base.one])
            if cand.divides(g):
                out.append(cand)
    return out


def factored_divisors(g, P):
    """(divisors, flagged) as Polys: frobenius._divisors of g and P, from the
    kernel's factorization of g."""
    F = g.field
    parts = ff._list_squarefree(F, g.coeffs).items()
    primes = ff._list_prime_powers(F, parts)
    divisors = [(Poly(F, f), at_P) for f, at_P in _divisors(F, primes, P.coeffs)]
    return [f for f, _ in divisors], [f for f, at_P in divisors if at_P]


def test_monic_divisors_match_full_scan_oracle():
    rng = random.Random(31)
    for field, max_deg in ((F3, 6), (field_make(5, 1), 4), (field_make(7, 1), 3),
                           (field_make(3, 2), 3)):
        P = Poly(field, (1, 1))
        for _ in range(12):
            # random monic g, and square-rich g = h^2 * k
            g = Poly(field, [rng.randrange(field.order) for _ in range(max_deg)]
                     + [field.one])
            h = Poly(field, [rng.randrange(field.order) for _ in range(max_deg // 2)]
                     + [field.one])
            k = Poly(field, (rng.randrange(field.order), field.one))
            for f in (g, h * h, h * h * k, Poly.one(field)):
                divisors = oracle_monic_divisors(f)
                assert scan_monic_divisors(f) == divisors, (field, f)
                assert factored_divisors(f, P) == (
                    divisors, [d for d in divisors if P.divides(d)]
                ), (field, f)


def test_monic_divisors_match_scan_on_every_small_monic():
    # every monic g of degree <= 6 over F_3 and <= 4 over F_5, F_7 and F_9;
    # P runs over the monic irreducibles of degree 1 and 2 in turn, so each
    # is flagged in some g that it divides
    tested = flagged = 0
    for field, max_deg in ((F3, 6), (field_make(5, 1), 4), (field_make(7, 1), 4),
                           (field_make(3, 2), 4)):
        Ps = itertools.cycle(list(monic_irreducibles(field, 1))
                             + list(monic_irreducibles(field, 2)))
        for d in range(max_deg + 1):
            for tail in itertools.product(range(field.order), repeat=d):
                g, P = Poly(field, tail + (field.one,)), next(Ps)
                divisors = scan_monic_divisors(g)
                expected = [f for f in divisors if P.divides(f)]
                assert factored_divisors(g, P) == (divisors, expected), (g, P)
                tested += 1
                flagged += bool(expected)
    assert (tested, flagged) == (1093 + 781 + 2801 + 7381, 690)


def test_monic_divisors_of_constructive_products():
    # u * prod pi_i^e_i, as in the squarefree test: the divisors are the
    # products of pi_i^k_i with k_i <= e_i, and P = pi_0 is flagged exactly
    # when k_0 > 0
    scanned = 0
    for f, _, built in constructive_products(((F3, (1, 2)), (field_make(5, 1), (1,)),
                                              (field_make(3, 2), (1,)))):
        P = built[0][0]
        divisors = []
        for ks in itertools.product(*(range(e + 1) for _, e in built)):
            d = Poly.one(f.field)
            for (pi, _), k in zip(built, ks):
                d = d * pi**k
            divisors.append((d, ks[0] > 0))
        divisors.sort(key=lambda d: (len(d[0].coeffs), d[0].coeffs))
        assert factored_divisors(f.monic(), P) == (
            [d for d, _ in divisors], [d for d, flagged in divisors if flagged]
        ), f
        if f.field.order ** (f.deg // 2) <= 81:  # the scan where it is cheap
            assert scan_monic_divisors(f.monic()) == [d for d, _ in divisors], f
            scanned += 1
    assert scanned > 500


def test_endring_divisors_match_scan_on_every_module(sweep):
    # the End-order divisors of every module over F_3, F_9, F_5 and F_25 are
    # the scan's divisors of its conductor g, flagged by P | f
    for dm, cp in (pair for pairs in sweep.values() for pair in pairs):
        kind, g, _, conductors, flagged = endomorphism_order(cp)
        if kind is EndRingKind.QUATERNIONIC_CASE:
            continue
        assert conductors == scan_monic_divisors(g), dm
        assert flagged == [f for f in conductors if dm.P.divides(f)], dm


def test_monic_divisors_take_polynomially_many_kernel_calls(record_calls):
    # g = T^24 over F_3, the conductor of X^2 + T^48 (P = T, m = 48): the
    # scan oracle divides by every monic f of degree <= 12, 797,161 of them.
    # Yun's loop on disc = 2T^48 makes a gcd and two divisions for each of
    # the 15 steps of the p-th root T^16, P^48 and g take a few squarings,
    # and each divisor one product: 122 kernel calls in all
    names = ("_list_mul", "_list_divmod", "_list_gcd", "_list_powmod")
    calls = {name: record_calls(ff, name) for name in names}
    cp = CharPoly(Poly.zero(F3), 1, T, 48)
    kind, g, omega, conductors, flagged = endomorphism_order(cp)
    made = {name: len(c) for name, c in calls.items()}
    assert (kind, g, omega) == (EndRingKind.NON_MAXIMAL_ORDER, T**24, Poly(F3, (2,)))
    assert conductors == [T**k for k in range(25)] and flagged == conductors[1:]
    assert sum(made.values()) <= 150, made


# --- the conductor of End_L(Phi) --------------------------------------------
# O_K = A[sqrt(omega)] and the order of conductor f is A[f sqrt(omega)].
# endomorphism_order reads (g, omega) off the charpoly, so its conductor g is
# that of A[pi] = A[g sqrt(omega)], the same for the whole isogeny class;
# End_L(Phi) lies between A[pi] and O_K and varies within the class.


def end_contains(dm, cp, f):
    """Whether End_L(dm) contains A[f sqrt(omega)], for f | g.

    2 pi - c = g sqrt(omega), so f sqrt(omega) is an endomorphism exactly
    when Phi_{g/f} right-divides 2 t^n - Phi_c; the quotient then commutes
    with Phi_T, because L{t} has no zero divisors.
    """
    ext = dm.ext
    g = endomorphism_order(cp)[1]
    h, r = divmod(g, f)
    assert r.is_zero()
    two_pi_minus_c = OrePoly.tau_power(ext, ext.degree).lscale(ext.scalar(2)) - dm.phi(cp.c)
    return two_pi_minus_c.rdivmod(dm.phi(h))[1].is_zero()


def end_conductor(dm, cp):
    """The least admissible conductor f with A[f sqrt(omega)] in End_L(dm);
    None in the quaternionic case.  f = g always passes."""
    conductors = endomorphism_order(cp)[3]
    return next((f for f in conductors if end_contains(dm, cp, f)), None)


def test_end_conductor_over_f27():
    # every module over F_27 with gamma in {0, 1}: the passing conductors are
    # exactly the multiples of f_End, and g = 1 forces f_End = 1.  Within an
    # ordinary isogeny class End spreads over every order between A[pi] and
    # O_K: each monic f | g is f_End of some module in the class (for
    # elliptic curves this is Waterhouse's theorem; Yu 1995 for Drinfeld
    # modules)
    L = ext_make(F3, 3)
    ordinary_non_maximal = maximal_end = 0
    spread = {}  # (gamma, c, mu) of an ordinary class -> (conductors, f_End seen)
    for gamma in (0, 1):
        for g in L.elements():
            for delta in L.units():
                dm = DrinfeldModule(L, gamma, g, delta)
                cp = charpoly(dm)
                kind, cond, _, conductors, _ = endomorphism_order(cp)
                f_end = end_conductor(dm, cp)
                if kind is EndRingKind.QUATERNIONIC_CASE:
                    assert f_end is None
                    continue
                assert f_end in conductors
                for f in conductors:
                    assert end_contains(dm, cp, f) == f_end.divides(f), (dm, f)
                if cond.is_one():
                    assert f_end.is_one()
                if supersingular(dm, cp)[0]:
                    continue
                key = (gamma, cp.c.coeffs, cp.mu)
                spread.setdefault(key, (conductors, set()))[1].add(f_end.coeffs)
                if not cond.is_one():
                    ordinary_non_maximal += 1
                    maximal_end += f_end.is_one()
    # End is maximal for a quarter of the ordinary modules whose A[pi] is not
    assert (maximal_end, ordinary_non_maximal) == (104, 416)
    for key, (conductors, seen) in spread.items():
        assert seen == {f.coeffs for f in conductors}, key
    assert len(spread) == 24
    assert sum(len(conductors) > 1 for conductors, _ in spread.values()) == 8


def test_end_conductor_reproducer():
    # Phi_T = t + t^2 over F_27: A[pi] has conductor T + 1, but t commutes
    # with Phi_T and t^3 = pi, so End_L(Phi) = O_K
    L = ext_make(F3, 3)
    dm = DrinfeldModule(L, 0, 1, 1)
    cp = charpoly(dm)
    kind, g, omega, conductors, _ = endomorphism_order(cp)
    assert kind is EndRingKind.NON_MAXIMAL_ORDER
    assert g == omega == Poly(F3, (1, 1))
    tau = OrePoly.tau_power(L, 1)
    assert tau * dm.phi_T() == dm.phi_T() * tau
    assert end_conductor(dm, cp).is_one()


def embedding(sub, ext):
    """A field embedding of sub = F_{q^k} into ext = F_{q^n} over F_q (k | n):
    y goes to a root in ext of sub's modulus."""

    def horner(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        return acc

    root = next(x for x in ext.elements() if horner(sub.modulus, x) == 0)
    return lambda a: horner(sub.coords(a), root)


def test_end_conductor_picks_up_subfield_frobenius():
    # a module defined over F_{q^k} has t^k in End_L, so End_L contains the
    # order A[t^k], whose conductor is that of the module over F_{q^k}
    rng = random.Random(5)
    strict = 0
    for q, n, k in ((3, 3, 1), (3, 4, 1), (3, 4, 2), (5, 2, 1), (3, 6, 2), (3, 6, 3)):
        base = field_make(q, 1)
        L, sub = ext_make(base, n), ext_make(base, k)
        iota = embedding(sub, L)
        for _ in range(25):
            coeffs = (rng.randrange(sub.order), rng.randrange(sub.order),
                      rng.randrange(1, sub.order))
            small = DrinfeldModule(sub, *coeffs)
            dm = DrinfeldModule(L, *map(iota, coeffs))
            cp = charpoly(dm)
            if cp.discriminant().is_zero():
                continue
            g_k = endomorphism_order(charpoly(small))[1]
            f_end = end_conductor(dm, cp)
            assert f_end.divides(g_k), (q, n, k, coeffs)
            strict += f_end != endomorphism_order(cp)[1]
    assert strict > 0
