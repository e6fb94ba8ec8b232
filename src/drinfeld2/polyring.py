"""Dense univariate polynomials over a finite field.

Covers the commutative ring A = F_q[T] as well as generic coefficient fields:
arithmetic, Euclidean division, gcd, irreducibility, squarefree splitting and
enumeration of monic irreducibles.  Coefficients are stored as the kernel's
trimmed coefficient tuple: field codes, low degree first, with no trailing
zeros.  Products, powers, division, gcd, the irreducibility test and Yun's
squarefree decomposition are thin wrappers over the polynomial kernel in ff.
Poly and ore.OrePoly share the dense base _Dense (construction, equality,
addition, scaling, monic normalization and the text of their terms).
"""

from __future__ import annotations

import re

from .ff import (
    DomainError,
    _list_divmod,
    _list_gcd,
    _list_irreducible,
    _list_mul,
    _list_pow,
    _list_square_split,
    _list_squarefree,
    _list_trim,
    _monic_irreducibles,
    check_same_field,
    least_irreducible,
)

NEG_INF = float("-inf")


class PolyDomainError(DomainError):
    """An operation was applied outside its domain."""


class _Dense:
    """Coefficient tuple over a field, low degree first, no trailing zeros.

    The shared base of Poly and OrePoly: everything here means the same in
    F_q[T] and in L{t}.  A subclass names its error class in _domain_error.
    """

    __slots__ = ("field", "coeffs")
    _domain_error = ValueError

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(_list_trim(list(coeffs)))

    # --- constructors ---

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    # --- structure ---

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise self._domain_error("leading coefficient of 0")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs,))

    # --- additive structure and scaling ---

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return type(self)(F, out)

    def __neg__(self):
        F = self.field
        return type(self)(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply every coefficient by the constant c (from the left)."""
        F = self.field
        return type(self)(F, [F.mul(c, x) for x in self.coeffs])

    def monic(self):
        if self.is_zero():
            raise self._domain_error("monic normalization of 0")
        if self.lc() == self.field.one:
            return self
        return self.scale(self.field.inv(self.lc()))

    # --- text form ---

    def _terms(self, var):
        """The text of each nonzero term, low degree first: a constant's
        digits, then var, var^i or c*var^i."""
        F = self.field
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = F.to_str(c)
            else:
                term = var if i == 1 else "%s^%d" % (var, i)
                if c != F.one:
                    term = "%s*%s" % (F.to_str(c), term)
            terms.append(term)
        return terms


class Poly(_Dense):
    __slots__ = ()
    _domain_error = PolyDomainError

    @classmethod
    def x(cls, field):
        return cls(field, (0, field.one))

    def is_one(self):
        return self.coeffs == (self.field.one,)

    def is_constant(self):
        return len(self.coeffs) <= 1

    # --- multiplicative structure (the ff kernel does the work) ---

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        return Poly(self.field, _list_mul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise PolyDomainError("negative polynomial power")
        return Poly(self.field, _list_pow(self.field, self.coeffs, e))

    def __divmod__(self, other):
        check_same_field(self.field, other.field)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        q, r = _list_divmod(F, self.coeffs, other.coeffs)
        return Poly(F, q), Poly(F, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """Whether self divides other exactly."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def deriv(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(F.scalar(i), self.coeffs[i]))
        return Poly(F, out)

    def eval(self, x, field=None):
        """Horner evaluation; field may be an extension of the coefficient
        field (codes below the base order embed as constants)."""
        F = field if field is not None else self.field
        if F != self.field and getattr(F, "base", None) != self.field:
            raise PolyDomainError("cannot evaluate in an unrelated field")
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    # --- text forms ---

    def __str__(self):
        return self.to_human()

    def __repr__(self):
        return "Poly(%s)" % self.to_human()

    def to_human(self):
        return "+".join(reversed(self._terms("T"))) or "0"


# --- parsing ----------------------------------------------------------------


def poly_from_machine(field, text):
    text = text.strip()
    sep = ";" if ";" in text else ","
    coeffs = [field.from_str(t.strip()) for t in text.split(sep)]
    return Poly(field, coeffs)


# a run of signs, then a term; the dangling-sign check leaves no trailing run
_SIGNED_TERM = re.compile(r"([+-]*)([^+-]+)")
# DOTALL: tabs and newlines stay inside a term, where int() may strip them
_T_POWER = re.compile(r"T(?:\^(.*))?", re.DOTALL)


def poly_from_human(field, text):
    """Parse the human form of a polynomial in T, such as 'T^2 - T + 2*T^3'.

    Spaces are dropped.  The rest is a sum of terms c, T, T^k, c*T or c*T^k,
    with c in the field's digit form (FiniteField.from_str) and k an integer.
    A run of signs before a term multiplies, so 'T+-1' is T - 1.  Errors come
    in this order: an empty text, a trailing sign, then term by term a bad
    term before its coefficient's FieldError.
    """
    s = text.replace(" ", "")
    if not s:
        raise PolyDomainError("empty polynomial")
    if s[-1] in "+-":
        raise PolyDomainError("dangling sign in %r" % text)
    coeffs = {}
    for signs, term in _SIGNED_TERM.findall(s):
        cpart, star, vpart = term.partition("*")
        if not star and term.startswith("T"):
            cpart, vpart = "1", term
        power = 0
        if vpart:
            match = _T_POWER.fullmatch(vpart)
            try:
                power = 1 if match[1] is None else int(match[1])
            except (TypeError, ValueError):  # TypeError: no match
                raise PolyDomainError("bad term %r in %r" % (term, text)) from None
        c = field.from_str(cpart)
        if signs.count("-") % 2:
            c = field.neg(c)
        coeffs[power] = field.add(coeffs.get(power, 0), c)
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return Poly(field, out)


def poly_from_str(field, text):
    """Accept either the human form ('T^2+2*T+1') or the machine coefficient
    list ('1,2,1', low degree first)."""
    if "T" in text:
        return poly_from_human(field, text)
    return poly_from_machine(field, text)


# --- gcd, irreducibility, squarefree splitting ------------------------------


def gcd(a, b):
    """Monic greatest common divisor."""
    check_same_field(a.field, b.field)
    return Poly(a.field, _list_gcd(a.field, a.coeffs, b.coeffs))


def is_irreducible(f):
    """Ben-Or's test, which stops at the degree of the smallest factor;
    requires deg f >= 1."""
    if f.is_constant():
        raise PolyDomainError("irreducibility is undefined for constants")
    return _list_irreducible(f.field, f.monic().coeffs)


def squarefree_decomposition(f):
    """Multiplicity -> monic squarefree factor, for f != 0, by Yun's
    algorithm in the kernel.

    The product of factor^multiplicity reconstructs f.monic() exactly,
    p-th-power parts included.
    """
    if f.is_zero():
        raise PolyDomainError("squarefree decomposition of 0")
    F = f.field
    parts = _list_squarefree(F, f.monic().coeffs)
    return {mult: Poly(F, fac) for mult, fac in parts.items()}


def squarefree_split(f):
    """(g, omega) with f = g^2 * omega, g monic maximal, omega squarefree up
    to the unit lc(f) which is folded into omega."""
    if f.is_zero():
        raise PolyDomainError("squarefree split of 0")
    F = f.field
    g, w = _list_square_split(F, _list_squarefree(F, f.monic().coeffs), f.lc())
    return Poly(F, g), Poly(F, w)


def monic_irreducibles(field, degree):
    """All monic irreducibles of the given degree, lexicographic order
    (coefficients compared low-degree-first as integers)."""
    if degree < 1:
        raise PolyDomainError("degree must be >= 1")
    for f in _monic_irreducibles(field, degree):
        yield Poly(field, f)


def least_irreducible_poly(field, degree):
    """Lexicographically least monic irreducible of the given degree."""
    return Poly(field, least_irreducible(field, degree))
