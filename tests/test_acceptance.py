"""End-to-end acceptance criteria.

Each test prints a single PASS or FAIL line to the live terminal (bypassing
capture) so the run produces an eyeball-able scorecard.
"""

import itertools
import random
import sys
from contextlib import contextmanager

import pytest

from drinfeld2 import (
    DrinfeldModule,
    EndRingKind,
    OrePoly,
    Poly,
    charpoly,
    chi_census,
    chi_formula,
    endomorphism_order,
    ext_make,
    field_make,
    formula_total,
    full_report,
    kernel_size_exp,
    least_irreducible_poly,
    monic_irreducibles,
    realize,
    verify,
)
from oracles import twist_constant, twist_tau


@contextmanager
def scorecard(number, label):
    try:
        yield
    except BaseException:
        print("[criterion %d] FAIL  %s" % (number, label), file=sys.__stdout__)
        raise
    print("[criterion %d] PASS  %s" % (number, label), file=sys.__stdout__)


def test_criterion_1_cayley_hamilton(sweep):
    with scorecard(1, "Cayley-Hamilton identity on exhaustive sweeps"):
        for (q, n), pairs in sweep.items():
            for dm, cp in pairs:
                assert verify(dm, cp), "identity fails for %r" % dm
                bound = (dm.m * dm.d) // 2
                assert cp.c.is_zero() or cp.c.deg <= bound, (
                    "deg c out of bound for %r" % dm
                )


def test_criterion_2_count_reproduction_case_1():
    with scorecard(2, "case-1 census counts match the closed form"):
        F3 = field_make(3, 1)
        report3 = full_report(Poly.x(F3), 1)
        assert report3.total == 6
        assert formula_total(3, 1, 1) == 6
        F5 = field_make(5, 1)
        report5 = full_report(Poly.x(F5), 1)
        assert report5.total == 20
        assert formula_total(5, 1, 1) == 20


def test_criterion_3_realization_inclusion_and_coverage():
    with scorecard(3, "realized classes admissible; ordinary coverage = 1"):
        F3 = field_make(3, 1)
        T = Poly.x(F3)
        P2 = least_irreducible_poly(F3, 2)
        for P, m in [(T, 1), (T, 2), (P2, 1)]:
            realized, admissible, ordinary, missing = realize(P, m)
            extraneous = realized - admissible
            assert not extraneous, (
                "inadmissible realized classes at (P=%s, m=%d): %s"
                % (P, m, sorted(extraneous))
            )
            assert not missing, (
                "unrealized ordinary classes at (P=%s, m=%d): %s"
                % (P, m, missing)
            )


def test_criterion_4_supersingularity_tri_equivalence(sweep):
    with scorecard(4, "height / trace / kernel criteria are equivalent"):
        for (q, n), pairs in sweep.items():
            for dm, cp in pairs:
                by_height = dm.height() == 2
                by_trace = (cp.c % dm.P).is_zero()
                by_kernel = kernel_size_exp(dm.phi(dm.P)) == 0
                assert by_height == by_trace == by_kernel, (
                    "criteria disagree for %r" % dm
                )


def test_criterion_5_torsion_cardinalities(sweep):
    with scorecard(5, "torsion kernel sizes for deg <= 2 and for P"):
        for (q, n), pairs in sweep.items():
            base = field_make(q, 1)
            monics = [Poly.one(base)]
            for d in (1, 2):
                for tail in itertools.product(range(q), repeat=d):
                    monics.append(Poly(base, list(tail) + [base.one]))
            for dm, cp in pairs:
                # Phi is F_q-linear in a, so combine precomputed tau-powers
                ext = dm.ext
                powers = [
                    OrePoly.one(ext),
                    dm.phi_T(),
                    dm.phi_T() * dm.phi_T(),
                ]
                H = dm.height()
                assert kernel_size_exp(dm.phi(dm.P)) == (2 - H) * dm.d
                for a in monics:
                    if dm.P.divides(a):
                        continue
                    phi_a = OrePoly.zero(ext)
                    for j, coeff in enumerate(a.coeffs):
                        if coeff:
                            phi_a = phi_a + powers[j].lscale(coeff)
                    assert kernel_size_exp(phi_a) == 2 * int(a.deg), (
                        "kernel size wrong for %r at a=%s" % (dm, a)
                    )


def test_criterion_6_endomorphism_order_ledger(sweep):
    with scorecard(6, "ordinary discriminant splits and order kinds"):
        for (q, n), pairs in sweep.items():
            seen = set()
            for dm, cp in pairs:
                if (cp.c % dm.P).is_zero():
                    continue  # ordinary modules only
                key = (cp.c.coeffs, cp.mu)
                if key in seen:
                    continue
                seen.add(key)
                disc = cp.discriminant()
                assert not disc.is_zero()
                kind, g, omega, conductors, flagged = endomorphism_order(cp)
                assert g * g * omega == disc
                if g.is_one():
                    assert kind is EndRingKind.MAXIMAL_ORDER
        F3 = field_make(3, 1)
        cp = charpoly(DrinfeldModule(ext_make(F3, 1), 0, 1, 1))
        assert cp.discriminant() == Poly(F3, (1, 1))
        assert endomorphism_order(cp)[0] is EndRingKind.MAXIMAL_ORDER


def test_criterion_7_chi_harness():
    with scorecard(7, "chi counts produced, P-stable, discrepancies itemized"):
        lines = ["q d m | enumerative closed-form note"]
        for q in (3, 5):
            base = field_make(q, 1)
            for d in (1, 2):
                choices = list(itertools.islice(monic_irreducibles(base, d), 2))
                assert len(choices) == 2
                for m in (1, 2):
                    counts = {chi_census(P, m)[0] for P in choices}
                    assert len(counts) == 1, (
                        "chi count unstable across P at (q=%d, d=%d, m=%d)"
                        % (q, d, m)
                    )
                    enum = counts.pop()
                    closed = chi_formula(q, d, m)
                    if closed is None:
                        note = "no closed form"
                    elif closed.denominator != 1:
                        note = "closed form not an integer"
                    elif int(closed) != enum:
                        note = "MISMATCH"
                    else:
                        note = "ok"
                    lines.append("%d %d %d | %d %s %s" % (q, d, m, enum, closed, note))
        print("\n".join(lines))


@pytest.fixture(scope="module")
def rng():
    return random.Random(20260825)


def _random_field(rng):
    q = rng.choice((3, 5))
    n = rng.choice((1, 2))
    return ext_make(field_make(q, 1), n)


def _random_module(rng, ext=None):
    if ext is None:
        ext = _random_field(rng)
    gamma = rng.randrange(ext.order)
    g = rng.randrange(ext.order)
    delta = rng.randrange(1, ext.order)
    return DrinfeldModule(ext, gamma, g, delta)


def _random_ore(ext, max_deg, rng):
    return OrePoly(ext, [rng.randrange(ext.order) for _ in range(max_deg + 1)])


def _random_poly(field, max_deg, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(max_deg + 1)])


def test_criterion_8a_ore_laws(rng):
    with scorecard(8, "(a) Ore associativity and right-division, 1000 cases"):
        for _ in range(1000):
            ext = _random_field(rng)
            a = _random_ore(ext, rng.randrange(5), rng)
            b = _random_ore(ext, rng.randrange(5), rng)
            c = _random_ore(ext, rng.randrange(5), rng)
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                q, r = a.rdivmod(b)
                assert q * b + r == a


def test_criterion_8b_homomorphism_laws(rng):
    with scorecard(8, "(b) Phi respects + and *, 1000 cases"):
        for _ in range(1000):
            dm = _random_module(rng)
            base = dm.ext.base
            a = _random_poly(base, rng.randrange(4), rng)
            b = _random_poly(base, rng.randrange(4), rng)
            assert dm.phi(a + b) == dm.phi(a) + dm.phi(b)
            assert dm.phi(a * b) == dm.phi(a) * dm.phi(b)


def test_criterion_8c_degree_doubling(rng):
    with scorecard(8, "(c) deg Phi_a = 2 deg a, 1000 cases"):
        for _ in range(1000):
            dm = _random_module(rng)
            a = _random_poly(dm.ext.base, rng.randrange(4), rng)
            if a.is_zero():
                assert dm.phi(a).is_zero()
            else:
                assert dm.phi(a).deg == 2 * a.deg


def test_criterion_8d_frobenius_centrality(rng):
    with scorecard(8, "(d) t^n commutes with Phi_a, 1000 cases"):
        for _ in range(1000):
            dm = _random_module(rng)
            F = OrePoly.tau_power(dm.ext, dm.n)
            a = _random_poly(dm.ext.base, rng.randrange(4), rng)
            assert F * dm.phi(a) == dm.phi(a) * F


def test_criterion_8e_twist_invariance(rng):
    with scorecard(8, "(e) charpoly invariant under twists, 1000 cases"):
        for _ in range(1000):
            dm = _random_module(rng)
            cp = charpoly(dm)
            u = rng.randrange(1, dm.ext.order)
            tw = twist_constant(dm, u)
            cp_u = charpoly(tw)
            assert (cp_u.c, cp_u.mu) == (cp.c, cp.mu)
            cp_t = charpoly(twist_tau(dm))
            assert (cp_t.c, cp_t.mu) == (cp.c, cp.mu)
