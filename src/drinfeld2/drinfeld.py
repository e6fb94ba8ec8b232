"""Rank-2 Drinfeld F_q[T]-modules over a finite A-field L.

A module is given by Phi_T = gamma(T) + g*t + delta*t^2 with delta != 0.  The
A-characteristic P (minimal polynomial of gamma(T) over F_q), its degree d and
m = n/d are derived at construction.
"""

from __future__ import annotations

import json

from .ff import ExtensionField, field_make, ext_make
from .ore import OrePoly, height, rgcd
from .polyring import Poly


class RankError(ValueError):
    """delta = 0 would drop the rank below 2."""


def minimal_polynomial(ext, x):
    """Monic minimal polynomial of x in L over the base field F_q.

    The product of (X - y) over the distinct Frobenius conjugates
    y = x, x^q, x^(q^2), ... of x; its coefficients lie in F_q, whose codes
    are the same in L.
    """
    f = Poly.one(ext)
    y = x
    while True:
        f = f * Poly(ext, (ext.neg(y), ext.one))
        y = ext.frobenius(y)
        if y == x:
            return Poly(ext.base, f.coeffs)


class DrinfeldModule:
    __slots__ = ("ext", "gamma", "g", "delta", "P", "d", "m", "_phi_T")

    def __init__(self, ext, gamma, g, delta):
        if delta == 0:
            raise RankError("delta must be nonzero (rank 2)")
        self.ext = ext
        self.gamma = gamma
        self.g = g
        self.delta = delta
        self.P = minimal_polynomial(ext, gamma)
        self.d = len(self.P.coeffs) - 1
        n = ext.degree
        assert n % self.d == 0
        self.m = n // self.d
        self._phi_T = OrePoly(ext, (gamma, g, delta))

    @property
    def n(self):
        return self.ext.degree

    def phi_T(self):
        return self._phi_T

    def phi(self, a):
        """Image of a in F_q[T] under the defining algebra homomorphism,
        evaluated by Horner's scheme in Phi_T."""
        ext = self.ext
        acc = OrePoly.zero(ext)
        for c in reversed(a.coeffs):
            acc = acc * self._phi_T
            if c:
                acc = acc + OrePoly.constant(ext, c)
        return acc

    def phi_ideal(self, i1, i2):
        """Monic generator of the left ideal generated by Phi_{i1}, Phi_{i2}."""
        if i1.is_zero() and i2.is_zero():
            raise ValueError("ideal generators are both zero")
        return rgcd(self.phi(i1), self.phi(i2))

    def frobenius_ore(self):
        """F = t^n as an element of L{t}."""
        return OrePoly.tau_power(self.ext, self.n)

    def height(self):
        """Module height ht(Phi_P)/d; 2 means Phi_P is purely inseparable."""
        return self._height_of(self.phi(self.P))

    def _height_of(self, phi_P):
        """`height` read off phi_P = Phi_P, which the caller has evaluated."""
        h = height(phi_P)
        assert h % self.d == 0
        H = h // self.d
        assert H in (1, 2)
        return H

    # --- twists (used for isogeny-invariance checks) ---

    def twist_constant(self, u):
        """Conjugate by a nonzero constant u: coefficients a_i -> a_i u^(1-q^i)."""
        ext = self.ext
        if u == 0:
            raise ValueError("twist constant must be nonzero")
        uq = ext.frob_iter(u, 1)
        uq2 = ext.frob_iter(u, 2)
        g2 = ext.mul(self.g, ext.mul(u, ext.inv(uq)))
        d2 = ext.mul(self.delta, ext.mul(u, ext.inv(uq2)))
        return DrinfeldModule(ext, self.gamma, g2, d2)

    def twist_tau(self):
        """Conjugate by t: all coefficients to the q-th power."""
        ext = self.ext
        f = ext.frob_iter
        return DrinfeldModule(ext, f(self.gamma, 1), f(self.g, 1), f(self.delta, 1))

    # --- serialization ---

    def to_json(self):
        """(q, n) and the codes of gamma, g, delta determine the module: every
        field has one presentation, fixed by its orders (see ff), so the
        codes read back in `from_json` as the same elements."""
        ext = self.ext
        return {
            "q": ext.base.order,
            "n": ext.degree,
            "gamma_T": ext.to_str(self.gamma),
            "g": ext.to_str(self.g),
            "delta": ext.to_str(self.delta),
        }

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        q = data["q"]
        p, s = _split_prime_power(q)
        base = field_make(p, s)
        ext = ext_make(base, data["n"])
        return cls(
            ext,
            ext.from_str(data["gamma_T"]),
            ext.from_str(data["g"]),
            ext.from_str(data["delta"]),
        )

    def __repr__(self):
        ext = self.ext
        return "DrinfeldModule(q=%d, n=%d, gamma=%s, g=%s, delta=%s)" % (
            ext.base.order,
            ext.degree,
            ext.to_str(self.gamma),
            ext.to_str(self.g),
            ext.to_str(self.delta),
        )


def _split_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            s = 0
            while q % p == 0:
                q //= p
                s += 1
            if q != 1:
                raise ValueError("q is not a prime power")
            return p, s
    raise ValueError("bad q")


def all_modules(ext):
    """Every rank-2 module over L: gamma in L, g in L, delta in L^*."""
    for gamma in ext.elements():
        for g in ext.elements():
            for delta in ext.units():
                yield DrinfeldModule(ext, gamma, g, delta)
