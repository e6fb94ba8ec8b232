"""Per-module classification.

Ordinary vs supersingular (read off the charpoly), the
endomorphism-order ledger read off the discriminant split
disc = g^2 * omega, and the full per-module report.  Whether a candidate
X^2 - cX + mu P^m is an isogeny-class invariant at all is a property of the
census grid and lives in `census`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

from . import frobenius
from .polyring import Poly


class EndRingKind(enum.Enum):
    MAXIMAL_ORDER = "MAXIMAL_ORDER"
    NON_MAXIMAL_ORDER = "NON_MAXIMAL_ORDER"
    QUATERNIONIC_CASE = "QUATERNIONIC_CASE"


class ConsistencyError(AssertionError):
    """Supersingularity criteria that disagree (an arithmetic bug).  The
    library no longer raises it, only the tests' oracle does; it stays
    exported pending the decision whether the public API keeps it."""


def supersingular(dm, cp=None):
    """Supersingularity verdict with a witness dict, read off the charpoly.

    Phi is supersingular when P | c, which holds exactly when Phi has height
    H = 2 (Gekeler, Trans. AMS 2008).  Phi_P has t-degree 2d and t-height
    H*d, so the exponent of its kernel size is (2 - H)*d.  The tests check
    this verdict against the height and the kernel of Phi_P in L{t}.
    """
    if cp is None:
        cp = frobenius.charpoly(dm)
    c_mod_P = cp.c % dm.P
    H = 2 if c_mod_P.is_zero() else 1
    witness = {"height": H, "c_mod_P": str(c_mod_P), "kernel_exp": (2 - H) * dm.d}
    return H == 2, witness


def endomorphism_order(cp):
    """(kind, conductor_g, omega, admissible_conductors, non_coprime_flags).

    disc = 0 reports the quaternionic case without a split.  Otherwise
    disc = g^2 * omega with omega squarefree; g a unit means the maximal
    order.  Conductors listed are the monic divisors of g, read off its
    factorization; those not coprime to P are flagged (not excluded).
    """
    split = frobenius.conductor_split(cp)
    if split is None:
        return EndRingKind.QUATERNIONIC_CASE, None, None, [], []
    g, omega = split
    kind = EndRingKind.MAXIMAL_ORDER if g.is_one() else EndRingKind.NON_MAXIMAL_ORDER
    divisors = frobenius._conductor_divisors(cp)
    divisors = [(Poly(cp.field, f), at_P) for f, at_P in divisors]
    conductors = [f for f, _ in divisors]
    flagged = [f for f, at_P in divisors if at_P]
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
