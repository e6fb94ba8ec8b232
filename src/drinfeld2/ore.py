"""The twisted polynomial ring L{t} with t*lam = lam^q * t.

L is an ExtensionField over F_q; t stands for the q-power Frobenius.  Only
right division is provided (that is the side with a division algorithm in
L{t}).  Coefficients are field codes, low t-degree first, no
trailing zeros.  OrePoly shares its dense base (construction, equality,
addition, scaling, monic normalization and the text of its terms) with
polyring.Poly.
"""

from __future__ import annotations

from .ff import DomainError, check_same_field
from .polyring import _Dense


class OreDomainError(DomainError):
    """An operation was applied outside its domain."""


class OrePoly(_Dense):
    __slots__ = ()
    _domain_error = OreDomainError

    @classmethod
    def tau_power(cls, field, k):
        return cls(field, [0] * k + [field.one])

    def __mul__(self, other):
        """Twisted product: (a t^i)(b t^j) = a * b^(q^i) t^(i+j)."""
        check_same_field(self.field, other.field)
        F = self.field
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        add, mul, frob = F.add, F.mul, F.frob_iter
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, frob(y, i)))
        return OrePoly(F, out)

    # left multiplication by a constant is plain coefficient scaling
    lscale = _Dense.scale

    def rdivmod(self, other):
        """(quot, rem) with self = quot * other + rem, deg rem < deg other."""
        check_same_field(self.field, other.field)
        if other.is_zero():
            raise ZeroDivisionError("right division by zero")
        F = self.field
        b = other.coeffs
        r = list(self.coeffs)
        db = len(b) - 1
        q = [0] * max(len(r) - db, 0)
        # step k leaves entry k + db as it is: no later step reads it
        for k in reversed(range(len(q))):
            if r[k + db]:
                c = F.mul(r[k + db], F.inv(F.frob_iter(b[-1], k)))
                q[k] = c
                for i in range(db):
                    r[k + i] = F.sub(r[k + i], F.mul(c, F.frob_iter(b[i], k)))
        return OrePoly(F, q), OrePoly(F, r[:db])

    def __str__(self):
        return " + ".join(self._terms("t")) or "0"

    def __repr__(self):
        return "OrePoly(%s)" % self


def height(u):
    """Exact power of t dividing u on the left (index of the least nonzero
    coefficient)."""
    if u.is_zero():
        raise OreDomainError("height of 0")
    return next(i for i, c in enumerate(u.coeffs) if c)


def kernel_size_exp(u):
    """e such that the associated q-linearized polynomial has q^e roots in an
    algebraic closure (the separable degree deg - height)."""
    if u.is_zero():
        raise OreDomainError("kernel of 0")
    return len(u.coeffs) - 1 - height(u)
