"""Per-module classification.

Ordinary vs supersingular (three equivalent criteria), admissibility of a
candidate characteristic polynomial X^2 - cX + mu P^m as an isogeny-class
invariant, and the endomorphism-order ledger read off the discriminant split
disc = g^2 * omega.  A supersingular candidate (P | c) needs one place of
K(sqrt(disc)) above P; its verdict is read off constants, with no P-adic
valuation and no squarefree split (see `_c_parts`).  The verdict runs on
coefficient lists, from parts formed once per c (c^2 and the verdict at P)
and once per mu (-4 mu P^m), so the census pass builds no Poly per
candidate.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field as dc_field

from . import frobenius
from .ff import _list_divmod, _list_mul, check_same_field
from .ore import kernel_size_exp
from .polyring import Poly, PolyDomainError, is_irreducible


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
    above P, or F itself in A (the perfect-square case).  The Hasse-Weil
    bound on deg c leaves c = lambda P^(m/2), lambda in F_q, as the only
    supersingular c that can pass, with disc = (lambda^2 - 4 mu) P^m, so
    that place is read off m and d.  The verdict is the census pass's
    `_weil_verdict` on coefficient lists.
    """
    _check_family(P, m)
    check_same_field(c.field, P.field)
    if mu not in P.field.units():
        raise PolyDomainError("mu must be a unit")
    if not c.is_zero() and c.deg > m * (len(P.coeffs) - 1) // 2:
        raise PolyDomainError("deg c exceeds the Hasse-Weil bound")
    Pm = (P**m).coeffs
    return _weil_verdict(*_c_parts(c.coeffs, Pm, P, m), _mu_parts(mu, Pm, P.field),
                         P.field, _unit_squares(P.field))


def _unit_squares(base):
    """The squares of F_q^*."""
    return {base.mul(u, u) for u in base.units()}


def _c_parts(c, Pm, P, m):
    """The per-c parts of a verdict, from the coefficients of c and of P^m:
    c^2 as a list, and the verdict at P, which holds once disc != 0 and the
    infinite place does not split."""
    F = P.field
    cc = _list_mul(F, c, c)
    if _list_divmod(F, c, P.coeffs)[1]:
        return cc, Verdict.ORDINARY
    # P | c.  With v = v_P(c) and c != 0, vd <= deg c <= md/2.  For 2v < m,
    # disc = P^(2v) u with u = (c/P^v)^2 mod P a nonzero square: disc != 0
    # and P splits, whatever mu is.  Otherwise P^m | c^2, which deg c^2 <= md
    # makes c^2 = lambda^2 P^m: c = lambda P^(m/2), lambda in F_q, only
    # c = 0 for m odd.  Then disc = (lambda^2 - 4 mu) P^m = P^m u, u in F_q^*
    # once disc != 0.  For m odd one place above P ramifies.  For m even
    # there is one exactly when u is a non-square in A/P = F_(q^d); the
    # infinite place has already made u a non-square in F_q (deg disc = md
    # is even), and that stays one in F_(q^d) exactly when d is odd.
    if _list_divmod(F, cc, Pm)[1]:
        return cc, Verdict.NOT_ADMISSIBLE
    if m % 2:
        return cc, Verdict.SUPERSINGULAR_2
    if (len(P.coeffs) - 1) % 2:
        return cc, Verdict.SUPERSINGULAR_3
    return cc, Verdict.NOT_ADMISSIBLE


def _mu_parts(mu, Pm, F):
    """The per-mu part of a verdict, from the coefficients of P^m:
    -4 mu P^m as a list."""
    minus_4mu = F.mul(F.scalar(-4), mu)
    return [F.mul(minus_4mu, x) for x in Pm]


def _weil_verdict(cc, at_P, minus_4mu_Pm, F, squares):
    """`weil_admissible` on checked inputs, from its per-c parts (`_c_parts`),
    its per-mu part (`_mu_parts`) and the squares of F_q^*."""
    # deg c^2 <= md = deg P^m, so the degree and leading coefficient of
    # disc = c^2 - 4 mu P^m are its first nonzero entry from the top: for
    # md odd, the top one, -4 mu
    i, lead = len(minus_4mu_Pm), 0
    while not lead and i:
        i -= 1
        lead = F.add(cc[i], minus_4mu_Pm[i]) if i < len(cc) else minus_4mu_Pm[i]
    if not lead:
        # F = nu P^(m/2) in A: quaternionic square case
        return Verdict.SUPERSINGULAR_4
    # K(sqrt(disc)) is imaginary exactly when the infinite place does not
    # split: deg disc odd, or lc(disc) a non-square
    if i % 2 == 0 and lead in squares:
        return Verdict.NOT_ADMISSIBLE
    return at_P


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
