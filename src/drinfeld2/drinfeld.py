"""Rank-2 Drinfeld F_q[T]-modules over a finite A-field L.

A module is given by Phi_T = gamma(T) + g*t + delta*t^2 with delta != 0.  The
A-characteristic P (minimal polynomial of gamma(T) over F_q), its degree d and
m = n/d are derived at construction.
"""

from __future__ import annotations

import json

from .ff import DomainError, FieldError, _prime_factors, ext_make, field_make
from .ore import OrePoly, height
from .polyring import Poly


class RankError(DomainError):
    """delta = 0 would drop the rank below 2."""


def minimal_polynomial(ext, x):
    """Monic minimal polynomial of x in L over the base field F_q.

    The product of (X - y) over the distinct Frobenius conjugates
    y = x, x^q, x^(q^2), ... of x, on a coefficient list low degree first,
    on the arithmetic L hands out (`ExtensionField.arith`), as the charpoly
    is: each factor is a shift plus a scaled add.  The coefficients lie in
    F_q, whose codes are the same in L.
    """
    rep, code, zero, one, mul, add, _, frob = ext.arith()
    minus_one = rep(ext.scalar(-1))
    f = [one]
    x = y = rep(x)
    while True:
        minus_y = mul(minus_one, y)
        # (X - y) f: the coefficient at X^k is f[k-1] - y f[k]
        f = [add(lo, mul(minus_y, hi)) for lo, hi in zip([zero] + f, f + [zero])]
        y = frob(y)
        if y == x:
            return Poly(ext.base, [code(e) for e in f])


class DrinfeldModule:
    __slots__ = ("ext", "gamma", "g", "delta", "P", "d", "m", "_phi_T")

    def __init__(self, ext, gamma, g, delta):
        for name, x in (("gamma", gamma), ("g", g), ("delta", delta)):
            if x not in range(ext.order):
                raise FieldError("%s = %r is not an element code of L" % (name, x))
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
            acc = acc * self._phi_T + OrePoly.constant(ext, c)
        return acc

    def height(self):
        """Module height ht(Phi_P)/d; 2 means Phi_P is purely inseparable."""
        h = height(self.phi(self.P))
        assert h % self.d == 0
        H = h // self.d
        assert H in (1, 2)
        return H

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
        """The module of `to_json`; malformed input is a FieldError."""
        if isinstance(data, str):
            data = json.loads(data)
        for key in ("q", "n", "gamma_T", "g", "delta"):
            if not isinstance(data, dict) or key not in data:
                raise FieldError("module JSON lacks the key %r" % key)
            if key in ("q", "n") and type(data[key]) is not int:  # nor bool
                raise FieldError("%s = %r is not an int" % (key, data[key]))
        q = data["q"]
        primes = _prime_factors(q)
        if len(primes) != 1:
            raise FieldError("q = %r is not a prime power" % (q,))
        p, s = primes[0], 1
        while p**s < q:
            s += 1
        base = field_make(p, s)
        ext = ext_make(base, data["n"])
        return cls(
            ext,
            ext.from_str(data["gamma_T"]),
            ext.from_str(data["g"]),
            ext.from_str(data["delta"]),
        )

    def __repr__(self):
        return (
            "DrinfeldModule(q={q}, n={n}, gamma={gamma_T}, g={g}, delta={delta})"
            .format(**self.to_json())
        )
