"""Frobenius characteristic polynomials for rank-2 modules.

P_Phi(X) = X^2 - c X + mu P^m with c in A = F_q[T], deg c <= floor(m d / 2),
mu in F_q^*, satisfies t^{2n} - Phi_c t^n + mu Phi_{P^m} = 0 in L{t}.

It is read off the motive of Phi, the free L[T]-module with basis {1, t}
(Musleh-Schost, ISSAC 2023).  There t acts by
A = [[0, (T - gamma)/delta], [1, -g/delta]], and the Frobenius t^n by
M = A A^(1) ... A^(n-1), where A^(i) raises every coefficient of A to the
q^i-th power.  c is the trace of M and mu = (-1)^n N_{L/F_q}(delta)^{-1}
(Gekeler, Trans. AMS 2008).  The square case needs no special treatment.

The product is formed on the two rows of M, kept as coefficient lists in T
and started at the rows of A itself.  A^(i) is [[0, a0 + a1 T], [1, b]],
with a1 the q^i-th power of 1/delta, and right multiplication by it maps a
row (x, y) to (y, b y + a0 x + a1 T x): one pass of field products and sums
over y and x.  Each list is as long as its degree needs: x, the previous y,
is never longer than y, so the new y is at most one longer, and the trace
has floor(n/2) + 1 coefficients, the length deg c <= n/2 allows.  On the
last step the trace reads only row 0's new x, which is its y before the
step, so row 1 alone is multiplied: 2n - 3 row products for n >= 2, and
none for n = 1, where the trace is b.  a0 = -gamma/delta, a1 = 1/delta and
b = -g/delta are formed once, and since the Frobenius is a ring map each
later step raises the previous step's a0, a1 and b to the q-th power, which
in a field without tables is a short square-and-multiply where a q^i-th
power would be a long one.  The only Poly is built from the trace.
`_charpoly` runs `_motive_trace` in one body, on the arithmetic L hands out
(`ExtensionField.arith`), and calls none of L's field operations: discrete
logs when L is tabled, and packed ints over a prime base or coefficient
lists over a tower when it is not.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .ff import (
    _list_add, _list_mul, _list_prime_powers, _list_square_split, _list_squarefree,
)
from .ore import OrePoly
from .polyring import Poly


@dataclass(frozen=True)
class CharPoly:
    c: Poly
    mu: int
    P: Poly
    m: int

    @property
    def field(self):
        return self.P.field

    # P^m, the discriminant and Yun's parts of it are formed once per
    # charpoly, on coefficient lists.  A cached_property is not a field, so
    # equality and hashing do not see it.
    @functools.cached_property
    def _Pm(self):
        return self.P**self.m

    @functools.cached_property
    def _disc(self):
        F = self.field
        c = self.c.coeffs
        minus_4mu = F.neg(F.mul(F.scalar(4), self.mu))
        minus_4mu_Pm = [F.mul(minus_4mu, x) for x in self._Pm.coeffs]
        return Poly(F, _list_add(F, _list_mul(F, c, c), minus_4mu_Pm))

    @functools.cached_property
    def _disc_parts(self):
        # {multiplicity: monic squarefree factor} of disc != 0, as lists
        return _list_squarefree(self.field, self._disc.monic().coeffs)

    def discriminant(self):
        """c^2 - 4 mu P^m in A."""
        return self._disc

    def at_one(self):
        """P_Phi(1) = 1 - c + mu P^m in A."""
        F = self.field
        minus_c = [F.neg(x) for x in self.c.coeffs]
        mu_Pm = [F.mul(self.mu, x) for x in self._Pm.coeffs]
        return Poly(F, _list_add(F, _list_add(F, [F.one], minus_c), mu_Pm))

    def __str__(self):
        return "X^2 - ({c})X + ({mu})*({P})^{m}".format(**self.to_json())

    def to_json(self):
        return {
            "c": self.c.to_human(),
            "mu": self.field.to_str(self.mu),
            "P": self.P.to_human(),
            "m": self.m,
        }


def _motive_trace(n, zero, one, mul, add, frob, a0, a1, b):
    """The trace of M = A A^(1) ... A^(n-1), A^(i) = [[0, a0_i + a1_i T],
    [1, b_i]], as a coefficient list in T of length floor(n/2) + 1, under
    the field ops given: zero and one, a product mul, a sum add and the q-th
    power frob.  a0, a1 and b are the coefficients of A itself."""
    # right multiplication by [[0, a0 + a1 T], [1, b]] maps a row (x, y) to
    # (y, b y + a0 x + a1 T x); x, the previous y, is never longer than y
    M = [[[zero], [a0, a1]], [[one], [b]]]
    rows = M
    for i in range(1, n):
        # the coefficients of A^(i) are the q-th powers of those of A^(i-1)
        a0, a1, b = frob(a0), frob(a1), frob(b)
        if i == n - 1:  # the trace reads only row 0's new x, its current y
            M[0][0] = M[0][1]
            rows = M[1:]
        for row in rows:
            x, y = row
            z = [mul(b, e) for e in y] + [zero] * (len(x) + 1 - len(y))
            for k, e in enumerate(x):
                if e != zero:
                    z[k] = add(z[k], mul(a0, e))
                    z[k + 1] = add(z[k + 1], mul(a1, e))
            row[0], row[1] = y, z
    return [add(u, v) for u, v in itertools.zip_longest(M[0][0], M[1][1], fillvalue=zero)]


def _charpoly(ext, gamma, g, delta):
    """(c, mu) of the Frobenius t^n for Phi_T = gamma + g t + delta t^2 over
    L = ext; c is a polynomial over the base field F_q."""
    rep, code, zero, one, mul, add, pow, frob = ext.arith()
    minus_one = rep(ext.scalar(-1))
    a1 = pow(rep(delta), -1)
    minus_a1 = mul(a1, minus_one)
    trace = _motive_trace(ext.degree, zero, one, mul, add, frob,
                          mul(rep(gamma), minus_a1), a1, mul(rep(g), minus_a1))
    # mu = (-1)^n N(delta)^-1, and N(delta)^-1 = (1/delta)^(|L^*|/(q-1))
    mu = pow(a1, (ext.order - 1) // (ext.base.order - 1))
    mu = mul(pow(minus_one, ext.degree), mu)
    # The trace has coefficients in F_q, whose codes are the same in L.
    return Poly(ext.base, [code(e) for e in trace]), code(mu)


def charpoly(dm):
    """Characteristic polynomial of the Frobenius t^n of L for the module dm."""
    c, mu = _charpoly(dm.ext, dm.gamma, dm.g, dm.delta)
    return CharPoly(c=c, mu=mu, P=dm.P, m=dm.m)


def verify(dm, cp):
    """Exact check that t^{2n} - Phi_c t^n + mu Phi_{P^m} = 0."""
    ext = dm.ext
    n = ext.degree
    expr = (
        OrePoly.tau_power(ext, 2 * n)
        - dm.phi(cp.c) * OrePoly.tau_power(ext, n)
        + dm.phi(cp._Pm).lscale(cp.mu)
    )
    return expr.is_zero()


def euler_poincare(cp):
    """Monic generator of the Euler-Poincare ideal (P_Phi(1)) of A."""
    val = cp.at_one()
    assert not val.is_zero(), "P_Phi(1) vanished; degree bookkeeping is broken"
    return val.monic()


def conductor_split(cp):
    """(g, omega) with disc = g^2 * omega, or None when disc = 0: the
    squarefree split, read off Yun's parts of disc."""
    disc = cp.discriminant()
    if disc.is_zero():
        return None
    F = cp.field
    g, omega = _list_square_split(F, cp._disc_parts, disc.lc())
    return Poly(F, g), Poly(F, omega)


def _divisors(F, primes, P):
    """[(f, P | f)]: the monic divisors f of g = prod pi^e over the (pi, e)
    of primes, coefficient lists of the kernel, by degree and then by
    coefficients low degree first, each with whether P, the coefficient
    tuple of a monic irreducible, divides it.  A divisor takes one exponent
    k <= e at each pi, and P divides it exactly when P is some pi and its k
    is not 0, so no division runs."""
    divisors = [([F.one], False)]
    for pi, e in primes:
        is_P = tuple(pi) == P
        for f, flagged in list(divisors):
            for _ in range(e):
                f = _list_mul(F, f, pi)
                divisors.append((f, flagged or is_P))
    divisors.sort(key=lambda d: (len(d[0]), d[0]))
    return divisors


def _conductor_divisors(cp):
    """_divisors of the conductor g of disc != 0: g is prod fac^(mult // 2)
    over Yun's parts of disc, so one factorization of the parts of
    multiplicity >= 2 gives its primes."""
    parts = [(mult // 2, fac) for mult, fac in cp._disc_parts.items() if mult > 1]
    return _divisors(cp.field, _list_prime_powers(cp.field, parts), cp.P.coeffs)
