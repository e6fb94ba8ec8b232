"""Per-module classification.

Ordinary vs supersingular (three equivalent criteria), admissibility of a
candidate characteristic polynomial X^2 - cX + mu P^m as an isogeny-class
invariant, and the endomorphism-order ledger read off the discriminant split
disc = g^2 * omega.  A supersingular candidate (P | c) needs one place of
K(sqrt(disc)) above P: with disc = P^k u and P coprime to u, k odd or u a
non-square modulo P.  That is read off v_P(disc) with no squarefree split.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field as dc_field

from . import frobenius
from .ore import kernel_size_exp
from .polyring import (
    Poly,
    PolyDomainError,
    is_irreducible,
    pow_mod,
)


class Verdict(enum.Enum):
    ORDINARY = "ORDINARY"
    SUPERSINGULAR_2 = "SUPERSINGULAR_2"
    SUPERSINGULAR_3 = "SUPERSINGULAR_3"
    SUPERSINGULAR_4 = "SUPERSINGULAR_4"
    NOT_ADMISSIBLE = "NOT_ADMISSIBLE"

    def is_admissible(self):
        return self is not Verdict.NOT_ADMISSIBLE


class EndRingKind(enum.Enum):
    MAXIMAL_ORDER = "MAXIMAL_ORDER"
    NON_MAXIMAL_ORDER = "NON_MAXIMAL_ORDER"
    QUATERNIONIC_CASE = "QUATERNIONIC_CASE"


class ConsistencyError(AssertionError):
    """The three supersingularity criteria disagreed (arithmetic bug)."""


def supersingular(dm, cp=None):
    """Tri-criterion supersingularity verdict with a witness dict.

    Checks (i) module height = 2, (ii) P | c, (iii) Phi_P has trivial kernel,
    and insists all three agree.
    """
    if cp is None:
        cp = frobenius.charpoly(dm)
    phi_P = dm.phi(dm.P)
    H = dm._height_of(phi_P)
    by_height = H == 2
    c_mod_P = cp.c % dm.P
    by_trace = c_mod_P.is_zero()
    kexp = kernel_size_exp(phi_P)
    by_kernel = kexp == 0
    if not (by_height == by_trace == by_kernel):
        raise ConsistencyError(
            "criteria disagree: height=%r trace=%r kernel=%r for %r"
            % (by_height, by_trace, by_kernel, dm)
        )
    witness = {"height": H, "c_mod_P": str(c_mod_P), "kernel_exp": kexp}
    return by_height, witness


def _is_square_in_residue_field(z, P):
    """Whether the nonzero residue z mod P is a square in A/P = F_{q^d}."""
    q = P.field.order
    d = len(P.coeffs) - 1
    e = (q**d - 1) // 2
    return pow_mod(z, e, P).is_one()


def _check_family(P, m):
    """Raise PolyDomainError unless P is monic irreducible of degree >= 1 and m >= 1."""
    if P.is_constant() or P.lc() != P.field.one or not is_irreducible(P):
        raise PolyDomainError("P must be monic irreducible of degree >= 1")
    if m < 1:
        raise PolyDomainError("m must be >= 1")


def weil_admissible(c, mu, P, m):
    """Classify the candidate X^2 - cX + mu P^m.

    Admissible candidates are exactly the rank-2 isogeny-class invariants:
    ordinary ones need P coprime to c and an imaginary quadratic K(F);
    supersingular ones (P | c) additionally need a single place of K(F)
    above P, or F itself in A (the perfect-square case).  With
    disc = P^k u and P coprime to u, there is one place above P exactly
    when k is odd or u is a non-square modulo P.
    """
    _check_family(P, m)
    if mu == 0:
        raise PolyDomainError("mu must be a unit")
    if not c.is_zero() and c.deg > m * (len(P.coeffs) - 1) // 2:
        raise PolyDomainError("deg c exceeds the Hasse-Weil bound")
    base = P.field
    minus_4mu_Pm = (P**m).scale(base.mul(base.scalar(-4), mu))
    return _weil_verdict(c * c, _trace_verdict(c, P, m), minus_4mu_Pm, P,
                         _unit_squares(base))


def _unit_squares(base):
    """The squares of F_q^*."""
    return {base.mul(u, u) for u in base.units()}


def _trace_verdict(c, P, m):
    """The verdict of an admissible candidate with trace c: ORDINARY when P
    does not divide c, else SUPERSINGULAR_2 or SUPERSINGULAR_3."""
    if not (c % P).is_zero():
        return Verdict.ORDINARY
    if c.is_zero() and m % 2 == 1:
        return Verdict.SUPERSINGULAR_2
    return Verdict.SUPERSINGULAR_3


def _weil_verdict(cc, trace_verdict, minus_4mu_Pm, P, squares):
    """`weil_admissible` on checked inputs, from its per-c parts (cc = c^2
    and `_trace_verdict`), its per-mu part -4 mu P^m and the squares of F_q^*."""
    disc = cc + minus_4mu_Pm
    if disc.is_zero():
        # F = nu P^(m/2) in A: quaternionic square case
        return Verdict.SUPERSINGULAR_4
    # K(sqrt(disc)) is imaginary exactly when the infinite place does not
    # split: deg disc odd, or lc(disc) a non-square
    if disc.deg % 2 == 0 and disc.lc() in squares:
        return Verdict.NOT_ADMISSIBLE
    if trace_verdict is Verdict.ORDINARY:
        return trace_verdict
    # supersingular candidate: require one place of K(sqrt(disc)) above P,
    # read off disc = P^k u: k odd, or u a non-square mod P
    k, (rest, u) = 0, divmod(disc, P)
    while u.is_zero():
        k, (rest, u) = k + 1, divmod(rest, P)
    if k % 2 == 0 and _is_square_in_residue_field(u, P):
        return Verdict.NOT_ADMISSIBLE
    return trace_verdict


def _monic_divisors(g):
    """All monic divisors of the monic polynomial g, by degree and then by
    coefficients low degree first; each one has degree <= deg g / 2 or is
    the cofactor of one that has, so only those degrees are scanned."""
    base = g.field
    found = {}
    for degree in range(int(g.deg) // 2 + 1):
        for tail in itertools.product(range(base.order), repeat=degree):
            f = Poly(base, tail + (base.one,))
            cofactor, r = divmod(g, f)
            if r.is_zero():
                found[f.coeffs] = f
                found[cofactor.coeffs] = cofactor
    return sorted(found.values(), key=lambda f: (len(f.coeffs), f.coeffs))


def endomorphism_order(cp):
    """(kind, conductor_g, omega, admissible_conductors, non_coprime_flags).

    disc = 0 reports the quaternionic case without a split.  Otherwise
    disc = g^2 * omega with omega squarefree; g a unit means the maximal
    order.  Conductors listed are the monic divisors of g; those not coprime
    to P are flagged (not excluded).
    """
    split = frobenius.conductor_split(cp)
    if split is None:
        return EndRingKind.QUATERNIONIC_CASE, None, None, [], []
    g, omega = split
    kind = EndRingKind.MAXIMAL_ORDER if g.is_one() else EndRingKind.NON_MAXIMAL_ORDER
    conductors = _monic_divisors(g)
    # P irreducible, so non-coprime to P just means divisible by P
    flagged = [f for f in conductors if cp.P.divides(f)]
    return kind, g, omega, conductors, flagged


@dataclass
class ClassificationReport:
    charpoly: frobenius.CharPoly
    is_supersingular: bool
    height: int
    disc: Poly
    conductor_g: Poly | None
    omega: Poly | None
    end_ring_kind: EndRingKind
    admissible_conductors: list
    chi: Poly
    non_coprime_conductors: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "charpoly": self.charpoly.to_json(),
            "is_supersingular": self.is_supersingular,
            "height": self.height,
            "disc": self.disc.to_human(),
            "conductor_g": None if self.conductor_g is None else self.conductor_g.to_human(),
            "omega": None if self.omega is None else self.omega.to_human(),
            "end_ring_kind": self.end_ring_kind.value,
            "admissible_conductors": [f.to_human() for f in self.admissible_conductors],
            "non_coprime_conductors": [f.to_human() for f in self.non_coprime_conductors],
            "chi": self.chi.to_human(),
        }


def classify(dm):
    """Full per-module report."""
    cp = frobenius.charpoly(dm)
    ss, witness = supersingular(dm, cp)
    kind, g, omega, conductors, flagged = endomorphism_order(cp)
    return ClassificationReport(
        charpoly=cp,
        is_supersingular=ss,
        height=witness["height"],
        disc=cp.discriminant(),
        conductor_g=g,
        omega=omega,
        end_ring_kind=kind,
        admissible_conductors=conductors,
        chi=frobenius.euler_poincare(cp),
        non_coprime_conductors=flagged,
    )
