"""Per-module classification.

Ordinary vs supersingular (three equivalent criteria), the
endomorphism-order ledger read off the discriminant split
disc = g^2 * omega, and the full per-module report.  Whether a candidate
X^2 - cX + mu P^m is an isogeny-class invariant at all is a property of the
census grid and lives in `census`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field as dc_field

from . import frobenius
from .ore import kernel_size_exp
from .polyring import Poly


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


def _end_order_json(g, omega, conductors, flagged):
    """The text of the End-order fields of `endomorphism_order`, as the
    classification report and the endring command print them."""
    return {
        "conductor_g": None if g is None else g.to_human(),
        "omega": None if omega is None else omega.to_human(),
        "admissible_conductors": [f.to_human() for f in conductors],
        "non_coprime_conductors": [f.to_human() for f in flagged],
    }


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
        end = _end_order_json(self.conductor_g, self.omega,
                              self.admissible_conductors, self.non_coprime_conductors)
        return {
            "charpoly": self.charpoly.to_json(),
            "is_supersingular": self.is_supersingular,
            "height": self.height,
            "disc": self.disc.to_human(),
            "conductor_g": end["conductor_g"],
            "omega": end["omega"],
            "end_ring_kind": self.end_ring_kind.value,
            "admissible_conductors": end["admissible_conductors"],
            "non_coprime_conductors": end["non_coprime_conductors"],
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
