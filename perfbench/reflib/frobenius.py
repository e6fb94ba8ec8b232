"""Frobenius characteristic polynomials for rank-2 modules.

P_Phi(X) = X^2 - c X + mu P^m with c in A = F_q[T], deg c <= floor(m d / 2),
mu in F_q^*, determined by the identity t^{2n} - Phi_c t^n + mu Phi_{P^m} = 0
in L{t}.  The identity pins (c, mu) uniquely except when F = t^n itself lies
in the image of A; that case (F = nu * Phi_{P^(m/2)}) is detected up front
and yields the square (X - nu P^(m/2))^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .ore import OrePoly
from .polyring import Poly, squarefree_split


class CharPolyError(ArithmeticError):
    """The defining linear identity failed to pin down (c, mu)."""


@dataclass(frozen=True)
class CharPoly:
    c: Poly
    mu: int
    P: Poly
    m: int

    @property
    def field(self):
        return self.P.field

    def discriminant(self):
        """c^2 - 4 mu P^m in A."""
        four_mu = self.field.mul(self.field.scalar(4), self.mu)
        return self.c * self.c - (self.P ** self.m).scale(four_mu)

    def constant_term(self):
        """P_Phi(0) = mu P^m."""
        return (self.P ** self.m).scale(self.mu)

    def at_one(self):
        """P_Phi(1) = 1 - c + mu P^m in A."""
        return Poly.one(self.field) - self.c + self.constant_term()

    def x_coeffs(self):
        """[mu P^m, -c, 1] as polynomials in T, low X-degree first."""
        return [self.constant_term(), -self.c, Poly.one(self.field)]

    def is_square(self):
        return self.discriminant().is_zero()

    def __str__(self):
        return "X^2 - (%s)X + (%s)*(%s)^%d" % (
            self.c,
            self.field.to_str(self.mu),
            self.P,
            self.m,
        )

    def key(self):
        return (self.c.coeffs, self.mu)

    def to_json(self):
        return {
            "c": self.c.to_human(),
            "mu": self.field.to_str(self.mu),
            "P": self.P.to_human(),
            "m": self.m,
        }


def charpoly(dm):
    """Characteristic polynomial of the Frobenius t^n of L for the module dm."""
    ext = dm.ext
    base = ext.base
    n = ext.degree
    m, d, P = dm.m, dm.d, dm.P
    bound = (m * d) // 2

    # F in A: F = nu * Phi_{P^(m/2)} forces the square char poly and makes the
    # linear identity below underdetermined, so handle it first.
    if m % 2 == 0:
        half = dm.phi(P ** (m // 2))
        F = OrePoly.tau_power(ext, n)
        for nu in base.units():
            if half.lscale(ext.embed(nu)) == F:
                c = (P ** (m // 2)).scale(base.mul(base.scalar(2), nu))
                mu = base.mul(nu, nu)
                return CharPoly(c=c, mu=mu, P=P, m=m)

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
    try:
        sol = linalg.solve(base, rows, rhs, require_unique=True)
    except linalg.LinearSolveError as exc:
        raise CharPolyError(
            "Frobenius identity did not determine (c, mu): %s" % exc
        ) from exc
    c = Poly(base, sol[:-1])
    mu = sol[-1]
    if mu == 0:
        raise CharPolyError("solved mu = 0; arithmetic inconsistency")
    return CharPoly(c=c, mu=mu, P=P, m=m)


def verify(dm, cp):
    """Exact check that t^{2n} - Phi_c t^n + mu Phi_{P^m} = 0."""
    ext = dm.ext
    n = ext.degree
    expr = (
        OrePoly.tau_power(ext, 2 * n)
        - dm.phi(cp.c) * OrePoly.tau_power(ext, n)
        + dm.phi(cp.P ** cp.m).lscale(ext.embed(cp.mu))
    )
    return expr.is_zero()


def minpoly(cp):
    """Minimal polynomial of F over K as X-coefficients (low degree first).

    Equals the characteristic polynomial unless that is a perfect square, in
    which case the linear factor X - c/2 is returned.
    """
    if cp.is_square():
        base = cp.field
        half = base.inv(base.scalar(2))
        return [-(cp.c.scale(half)), Poly.one(base)]
    return cp.x_coeffs()


def euler_poincare(cp):
    """Monic generator of the Euler-Poincare ideal (P_Phi(1)) of A."""
    val = cp.at_one()
    assert not val.is_zero(), "P_Phi(1) vanished; degree bookkeeping is broken"
    return val.monic()


def conductor_split(cp):
    """(g, omega) with disc = g^2 * omega, or None when disc = 0."""
    disc = cp.discriminant()
    if disc.is_zero():
        return None
    return squarefree_split(disc)
