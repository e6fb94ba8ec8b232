"""Exact arithmetic in small finite fields F_q (q = p^s, p odd) and extensions.

Elements are plain integer codes in range(order).  For a prime field the code
is the residue itself; for an extension of degree k over a base of order B the
code is the base-B digit expansion of the coefficient vector, low degree
first.  All operations are pure functions of the codes, so elements are
trivially hashable and shareable.  B is a power of p at every level of a
tower, so the code is also a base-p number: the text form lists its base-p
digits, low first.

Each field has exactly one presentation, fixed by (p, s, n): every extension
is taken modulo the lexicographically least monic irreducible of its degree
over its base, so a field is named by its orders alone.

Fields of order up to _TABLE_LIMIT are tabled, as Givaro's GFqDom: exp/log
tables on the least generator g of the unit group, searched for once (past
the base field) and kept as `generator`, and Zech logarithms
zech[k] = log(1 + g^k).  A product is one exp lookup, a sum one zech and one
exp lookup, and -a = a g^(N/2), N = order - 1.  The tables come from one walk
x -> x g over the units.  That map is F_p-linear on the base-p digits, so the
walk packs digit k into bits [wk, wk + w), w = p.bit_length() + 1.  A step is
one integer sum of the images of the word's halves, every slot of it at most
2p - 2 < 2^w so no carry crosses a slot, and one mask that takes every slot
mod p (_slot_reducer).  1 + x moves only the lowest base-p digit of x, so zech
costs one log lookup per unit.
Only ExtensionField reads the tables: its add, neg, mul and pow each take a
tabled branch when the field has tables, and PrimeField has none.  Other
modules take a field's arithmetic from `arith()`, one _Arith record (rep,
code, zero, one, mul, add, pow, frob): on discrete logs with None for 0 when
tabled, and otherwise on packed ints over a prime base and on coefficient
lists over a tower.

Fields above the limit, and every field before its tables exist, compute
modulo the defining polynomial f on the record that __init__ builds from
(base, f).  Over a prime base that is _packed_arith (Kronecker substitution):
an element is an int that holds its base-p digits in s-bit slots, a product
is one integer product whose high slots are folded back by precomputed rows
y^i mod f, and a sum is one integer sum and one _slot_reducer step.  Over a
tower it is _list_arith: an element is its trimmed coefficient list over the
base, a product is the kernel's product reduced mod f.  The field's own mul
and pow, and so inv and the Frobenius, map their operands into the record
once and the result back once, and the generator search and the table images
run on arith().  The field's own add and neg work digit by digit, mod p, on
the base-p code, over any base, since addition is coefficientwise at every
level of a tower.  One digit codec, _to_digits/_from_digits, expands a code
in any radix: base p for the text form and the table-free add and neg, a
power of 2 for packed words, and B = base.order, one digit per base-field
element, for the list record and coords/from_coords.  The Frobenius
x -> x^(q^i) is just a power, one exp/log lookup in a tabled field and
square-and-multiply in a table-free one.  _square_and_multiply is the
package's one square-and-multiply loop: field powers, powers modulo a
polynomial and polyring's Poly powers all pass it their product.

This module also holds the polynomial kernel: the one implementation of
products, powers, division, gcd, the formal derivative, Yun's squarefree
decomposition, Ben-Or's irreducibility test, factorization and the
enumeration of monic irreducibles on coefficient lists.  Ben-Or's loop takes
x to one more q-th power mod f per degree, q the order of the coefficient
field, and divides out each factor it finds, so it is distinct-degree
factorization too.  The irreducibility test stops it at the degree of f's
smallest factor, so most reducible candidates of a modulus search cost one
power.  Cantor-Zassenhaus then splits each product of factors of one degree.
The extension fields use the kernel for their moduli and the tower record,
polyring wraps it, and frobenius builds the End-order divisors and the
charpoly's sums on its lists.
"""

from __future__ import annotations

import collections
import itertools

_TABLE_LIMIT = 1 << 16


class DomainError(ValueError):
    """Bad input or a refused request, never a bug: the base of the
    library's own error classes, which the CLI reports with exit status 1."""


class FieldError(DomainError):
    """A field could not be constructed as requested."""


class IncompatibleFieldError(DomainError):
    """Operands belong to different fields."""


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _square_and_multiply(mul, one, a, e):
    """a^e for e >= 0 under the product mul with identity one; the last,
    unused squaring is skipped."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _to_digits(a, radix, count):
    """The count base-radix digits of a, low first."""
    out = []
    for _ in range(count):
        out.append(a % radix)
        a //= radix
    return tuple(out)


def _from_digits(digits, radix):
    a = 0
    for d in reversed(digits):
        a = a * radix + d
    return a


def _slot_reducer(p, slots, w=None):
    """(w, reduce): reduce(a + b) takes every w-bit slot of the sum of two
    words of `slots` base-p digits mod p at once (SWAR: Lamport, CACM 1975).
    A slot of the sum is at most 2p - 2, and adding 2^(w-1) - p to it sets
    its top bit, with no carry, exactly when it is p or more.  Any w with
    2^(w-1) >= p works; the default is the least."""
    if w is None:
        w = p.bit_length() + 1
    ones = sum(1 << w * k for k in range(slots))
    top, bias, shift = ones << (w - 1), ones * ((1 << (w - 1)) - p), w - 1
    return w, lambda s: s - (((s + bias) & top) >> shift) * p


_Arith = collections.namedtuple("_Arith", "rep code zero one mul add pow frob")


def _packed_arith(base, modulus):
    """The _Arith record of base[y]/(f), base = F_p and f = modulus monic of
    degree n, on Kronecker-packed ints (Kronecker 1882; Harvey, J. Symb.
    Comp. 2009): the table-free arithmetic of an extension of a prime field.

    rep puts base-p digit i of a code into bits [si, si + s) of an int,
    s = bit_length((2n - 1)(p - 1)^2), and code reads the digits back.  A
    packed element holds every digit below p, so slot k of the integer
    product of two is the sum of a_i b_j over i + j = k: at most n(p - 1)^2,
    and at most (n - 1)(p - 1)^2 in the high slots k = n .. 2n - 2.  mul
    takes each high slot mod p and adds that multiple of the packed row
    y^k mod f to the n low slots: n - 1 more terms of at most (p - 1)^2 each.
    So no slot ever exceeds (2n - 1)(p - 1)^2 < 2^s, no carry crosses a slot,
    and one final pass takes every low slot mod p.  add is one integer sum,
    whose slots are at most 2p - 2, then _slot_reducer's step on s-bit
    slots; it needs 2^(s-1) >= p, and 2^s > (p - 1)^2 >= 2p for p >= 5,
    s >= 3 for p = 3.
    pow takes units: it reduces e mod p^n - 1, so e may be negative.  zero
    and one pack as 0 and 1, and frob is the p-th power.
    """
    p, n = base.char, len(modulus) - 1
    s = ((2 * n - 1) * (p - 1) ** 2).bit_length()
    slot, low_mask, high = (1 << s) - 1, (1 << n * s) - 1, n * s
    _, reduce = _slot_reducer(p, n, s)
    n_units = p**n - 1

    def rep(a):
        return _from_digits(_to_digits(a, p, n), 1 << s)

    def code(x):
        return _from_digits(_to_digits(x, 1 << s, n), p)

    # y^n = -(f_0 + ... + f_(n-1) y^(n-1)), and y^(k+1) = y * y^k mod f
    y_n = [-c % p for c in modulus[:-1]]
    digits, rows = y_n, []
    for _ in range(n - 1):
        rows.append(_from_digits(digits, 1 << s))
        top = digits[-1]
        digits = [(d + top * c) % p for d, c in zip([0] + digits[:-1], y_n)]

    def mul(x, y):
        z = x * y
        low, z = z & low_mask, z >> high
        for row in rows:
            if not z:
                break
            c = (z & slot) % p
            if c:
                low += c * row
            z >>= s
        out = shift = 0
        while low:
            out |= (low & slot) % p << shift
            low >>= s
            shift += s
        return out

    def add(x, y):
        return reduce(x + y)

    def pow(x, e):
        return _square_and_multiply(mul, 1, x, e % n_units)

    return _Arith(rep, code, 0, 1, mul, add, pow, lambda x: pow(x, p))


class FiniteField:
    """Shared behaviour; element codes are ints in range(self.order).  Each
    subclass defines its own add, neg and mul."""

    order: int
    char: int
    pdeg: int  # degree over the prime field

    zero = 0
    one = 1

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _square_and_multiply(self.mul, self.one, a, e)

    def scalar(self, k):
        """Image of the integer k under the canonical map Z -> field."""
        # the prime field's codes are its residues in every encoding
        return k % self.char

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def pth_root(self, a):
        """The unique p-th root of a (the field is perfect)."""
        return self.pow(a, self.char ** (self.pdeg - 1))

    # --- text form: comma-separated base-p digits, low degree first ---

    def to_str(self, a):
        return ",".join(map(str, _to_digits(a, self.char, self.pdeg)))

    def from_str(self, text):
        parts = [t.strip() for t in str(text).split(",")]
        try:
            digits = [int(t) for t in parts]
        except ValueError:
            raise FieldError("bad field element %r" % (text,)) from None
        if len(digits) > self.pdeg:
            raise FieldError(
                "element %r has %d digits, field supports %d"
                % (text, len(digits), self.pdeg)
            )
        digits += [0] * (self.pdeg - len(digits))
        if any(d < 0 or d >= self.char for d in digits):
            raise FieldError("digit out of range in %r (base %d)" % (text, self.char))
        return _from_digits(digits, self.char)


class PrimeField(FiniteField):
    """F_p for an odd prime p; codes are residues."""

    def __init__(self, p):
        if _prime_factors(p) != [p]:
            raise FieldError("p = %d is not prime" % p)
        if p == 2:
            raise FieldError("p = 2 unsupported (odd characteristic required)")
        self.order = p
        self.char = p
        self.pdeg = 1

    # the one-digit cases of the text codec and of ExtensionField's
    # table-free add and neg
    def to_str(self, a):
        return str(a)

    def add(self, a, b):
        return (a + b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def __repr__(self):
        return "PrimeField(%d)" % self.order

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.order == self.order

    def __hash__(self):
        return hash(("PrimeField", self.order))


# --- the polynomial kernel (see the module docstring) -----------------------
# Lists hold coefficient codes, low degree first.  Inputs may carry trailing
# zeros; remainders and gcds come back trimmed.


def _list_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _list_add(field, a, b):
    """a + b, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = field.add(out[i], x)
    return _list_trim(out)


def _list_mul(field, a, b):
    add, mul = field.add, field.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _list_divmod(field, a, b):
    """(quotient, remainder) of a by b, whose last coefficient is nonzero.

    A monic b is never inverted: the field product and the irreducibility
    test divide by monic polynomials all the time, and inverting is a power
    in F_p.
    """
    add, mul, neg = field.add, field.mul, field.neg
    r = list(a)
    db = len(b) - 1
    lead_inv = None if b[-1] == field.one else field.inv(b[-1])
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r.pop()
        if c == 0:
            continue
        if lead_inv is not None:
            c = mul(c, lead_inv)
        shift = len(r) - db
        q[shift] = c
        nc = neg(c)
        for i in range(db):
            r[shift + i] = add(r[shift + i], mul(nc, b[i]))
    return q, _list_trim(r)


def _list_powmod(field, a, e, mod):
    """a^e modulo mod, by square-and-multiply (e = 0 gives [1] unreduced)."""

    def mulmod(x, y):
        return _list_divmod(field, _list_mul(field, x, y), mod)[1]

    return _square_and_multiply(
        mulmod, [field.one], _list_divmod(field, a, mod)[1], e
    )


def _list_gcd(field, a, b):
    """Monic gcd of a and b; [] when both are zero."""
    a, b = _list_trim(list(a)), _list_trim(list(b))
    while b:
        a, b = b, _list_divmod(field, a, b)[1]
    if a and a[-1] != field.one:
        lead_inv = field.inv(a[-1])
        a = [field.mul(lead_inv, x) for x in a]
    return a


def _list_pow(field, a, e):
    """a^e for e >= 0 (e = 0 gives [1])."""
    return _square_and_multiply(
        lambda x, y: _list_mul(field, x, y), [field.one], a, e
    )


def _list_deriv(field, a):
    """The formal derivative of a."""
    return [field.mul(field.scalar(i), a[i]) for i in range(1, len(a))]


def _list_squarefree(field, f):
    """Yun's squarefree decomposition of monic f: {multiplicity: monic
    squarefree factor}, whose product of factor^multiplicity is f.

    A squarefree f, the common case, costs one gcd.  Otherwise step i of the
    loop yields the factors of multiplicity exactly i, which is prime to p
    whenever there are any.  The residue is a p-th power, all of f when
    f' = 0: the factors of p-divisible multiplicity.  The next round takes
    its p-th root and scales the multiplicities by p, which repeat none of
    the earlier rounds'.
    """
    p, one = field.char, field.one
    result, scale = {}, 1
    while True:
        c = _list_gcd(field, f, _list_deriv(field, f))
        if len(c) == 1:  # f is squarefree
            if len(f) > 1:
                result[scale] = list(f)
            return result
        w = _list_divmod(field, f, c)[0]
        i = 1
        while len(w) > 1:
            y = _list_gcd(field, w, c)
            g = _list_divmod(field, w, y)[0]
            if len(g) > 1:
                result[i * scale] = g
            w = y
            c = _list_divmod(field, c, y)[0]
            i += 1
        if c == [one]:
            return result
        f = [field.pth_root(x) for x in c[::p]]
        scale *= p


def _list_square_split(field, parts, lead):
    """(g, omega) with g^2 omega = lead * prod fac^mult over Yun's parts
    {mult: fac}: g = prod fac^(mult // 2), monic, and omega the product of
    the fac of odd mult, squarefree with leading coefficient lead."""
    g = w = [field.one]
    for mult, fac in parts.items():
        if mult > 1:
            g = _list_mul(field, g, _list_pow(field, fac, mult // 2))
        if mult % 2:
            w = _list_mul(field, w, fac)
    return g, [field.mul(lead, x) for x in w]


def _list_distinct_degree(field, f):
    """Ben-Or's loop, which is distinct-degree factorization: for monic f of
    degree >= 1 it yields (i, f_i), f_i the product of the irreducible
    factors of degree i of f, for each i with f_i != 1, i increasing.

    The powers x^(B^i) mod f, B = field.order, come one B-th power at a
    time, and gcd(f, x^(B^i) - x) is the product of the factors of f whose
    degree divides i; each one found is divided out.  Once deg f < 2(i + 1)
    what is left is 1 or irreducible, and it is yielded last.  So f is
    irreducible exactly when the first degree yielded is deg f, and a caller
    that stops there stops at the degree of f's smallest factor: 1 for most
    reducible f (Ben-Or, FOCS 1981; Gao and Panario 1997).  For f with a
    repeated factor the later f_i may repeat factors.
    """
    h = [0, field.one]
    i = 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        h = _list_powmod(field, h, field.order, f)
        g = h + [0] * (2 - len(h))
        g[1] = field.sub(g[1], field.one)
        d = _list_gcd(field, f, g)
        if len(d) > 1:
            yield i, d
            f = _list_divmod(field, f, d)[0]
    if len(f) > 1:
        yield len(f) - 1, list(f)


def _list_irreducible(field, f):
    """Ben-Or's irreducibility test for monic f of degree >= 1 over field:
    the loop finds no factor of degree <= deg f / 2."""
    return next(_list_distinct_degree(field, f))[0] == len(f) - 1


def _list_equal_degree(field, f, i):
    """The monic irreducible factors of f, a monic product of distinct
    irreducibles of degree i, by Cantor and Zassenhaus (Math. Comp. 1981)
    for odd B = field.order.

    For a trial a, a^((B^i - 1)/2) is 0 or +-1 modulo each factor, so
    gcd(h, a^((B^i - 1)/2) - 1) splits the factors h found so far.  The
    trials are every polynomial of degree >= 1 in a fixed order, by degree
    and then lexicographically, so nothing is random.  Some trial of degree
    < deg h separates any two factors of h, by the Chinese remainder
    theorem, so the search ends.
    """
    e = (field.order**i - 1) // 2
    trials = (
        list(t)
        for n in itertools.count(2)
        for t in itertools.product(range(field.order), repeat=n)
        if t[-1]
    )
    done, todo = [], [list(f)]
    while True:
        done += [h for h in todo if len(h) - 1 == i]
        todo = [h for h in todo if len(h) - 1 > i]
        if not todo:
            return done
        a = next(trials)
        split = []
        for h in todo:
            b = _list_powmod(field, a, e, h) or [0]
            b[0] = field.sub(b[0], field.one)
            d = _list_gcd(field, h, b)
            split += [d, _list_divmod(field, h, d)[0]] if 1 < len(d) < len(h) else [h]
        todo = split


def _list_prime_powers(field, parts):
    """[(pi, e)]: the monic irreducible factors pi of prod fac^e over the
    (e, fac) of parts, each fac monic and squarefree and the facs pairwise
    coprime (Yun's parts), by the distinct- and then equal-degree
    factorization of each fac."""
    return [
        (pi, e)
        for e, fac in parts
        for i, f_i in _list_distinct_degree(field, fac)
        for pi in _list_equal_degree(field, f_i, i)
    ]


def _monic_irreducibles(field, degree):
    """Monic irreducibles of the given degree as coefficient tuples, in
    lexicographic order of (c_0, ..., c_{d-1}) compared as integer sequences.

    From degree 2 on the search starts at c_0 = 1: c_0 = 0 means the factor T.
    """
    tails = itertools.product(
        range(0 if degree == 1 else 1, field.order),
        *[range(field.order)] * (degree - 1),
    )
    for tail in tails:
        f = tail + (field.one,)
        if _list_irreducible(field, f):
            yield f


def least_irreducible(field, degree):
    """Lexicographically least monic irreducible of the given degree.

    Coefficient tuples (c_0, ..., c_{d-1}) are compared as integer sequences,
    low degree first.
    """
    if degree < 1:
        raise FieldError("degree must be >= 1")
    return next(_monic_irreducibles(field, degree))


def _list_arith(base, modulus):
    """The _Arith record of base[y]/(f), f = modulus monic of degree n, on
    trimmed coefficient lists over base, B = base.order: rep takes a code's
    n base-B digits and code reads them back, mul is the kernel's product
    mod f and add its sum, and no op mutates an element.  pow takes units and
    reduces e mod B^n - 1; zero is [], one [1] and frob the B-th power."""
    B, n = base.order, len(modulus) - 1
    n_units = B**n - 1

    def rep(a):
        return _list_trim(list(_to_digits(a, B, n)))

    def code(x):
        return _from_digits(x, B)

    def mul(x, y):
        return _list_divmod(base, _list_mul(base, x, y), modulus)[1]

    def add(x, y):
        return _list_add(base, x, y)

    def pow(x, e):
        return _list_powmod(base, x, e % n_units, modulus)

    return _Arith(rep, code, [], [base.one], mul, add, pow, lambda x: pow(x, B))


class ExtensionField(FiniteField):
    """base[y]/(modulus), modulus the least monic irreducible of the degree.

    That modulus is the field's one presentation: equal (base, degree) give
    the same field with the same codes.  Codes are base-B digit expansions
    (B = base.order) of the coefficient vector, so the base field embeds as
    the codes below B.
    """

    def __init__(self, base, degree):
        self.base = base
        self.degree = degree
        self.modulus = least_irreducible(base, degree)
        self.order = base.order**degree
        self.char = base.char
        self.pdeg = base.pdeg * degree
        self._exp = self._log = self._zech = self._generator = None
        # the table-free arithmetic, packed over a prime base and on
        # coefficient lists over a tower; _build_tables switches arith() to logs
        arith = _packed_arith if isinstance(base, PrimeField) else _list_arith
        self._arith = arith(base, self.modulus)
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    # --- digit codecs ---

    def coords(self, a):
        """Coefficient vector over the base field, low degree first."""
        return _to_digits(a, self.base.order, self.degree)

    def from_coords(self, coords):
        return _from_digits(coords, self.base.order)

    # --- arithmetic ---

    # not a cached_property: its __dict__ write slows all attribute reads (CPython 3.11)
    @property
    def generator(self):
        """The least generator of the unit group, searched for once."""
        if self._generator is None:
            self._generator = self._least_generator()
        return self._generator

    def _least_generator(self):
        """The least code that generates the unit group, tested on arith().
        Above degree 1 the search starts at B = base.order: the codes below
        B are the base field, whose units have orders dividing B - 1 <
        order - 1."""
        rep, _, _, one, _, _, pow, _ = self.arith()
        n_units = self.order - 1
        exponents = [n_units // f for f in _prime_factors(n_units)]
        for cand in range(self.base.order if self.degree > 1 else 1, self.order):
            x = rep(cand)
            if all(pow(x, e) != one for e in exponents):
                return cand
        raise AssertionError("the unit group of a finite field is cyclic")

    def _build_tables(self):
        gen = self.generator
        # the walk runs on packed words (see the module docstring); its steps
        # come from the images of the pdeg digit codes p^k
        p, pdeg, n_units = self.char, self.pdeg, self.order - 1
        w, reduce = _slot_reducer(p, pdeg)
        rep, code, _, _, mul, _, _, _ = self.arith()
        g = rep(gen)
        images = [_from_digits(_to_digits(code(mul(rep(p**k), g)), p, pdeg), 1 << w)
                  for k in range(pdeg)]

        def half(digits):
            # {packed half: packed image} and {packed half: code}, for the
            # codes whose nonzero digits sit at the positions `digits`
            image, code = {0: 0}, {0: 0}
            for j, k in enumerate(digits):
                step, b, pk = 1 << w * j, images[k], p**k
                for key in list(image):
                    im, c = image[key], code[key]
                    for _ in range(p - 1):  # one packed add per entry
                        key, im, c = key + step, reduce(im + b), c + pk
                        image[key], code[key] = im, c
            return image, code

        low, low_code = half(range(pdeg // 2))
        high, high_code = half(range(pdeg // 2, pdeg))
        cut, mask = w * (pdeg // 2), (1 << w * (pdeg // 2)) - 1
        # one int object per value, shared by exp, log and zech
        ints = list(range(self.order))
        exp = [0] * n_units
        log = [None] * self.order  # 0 has no log
        x = 1  # packed, as are the images; the codes go into the tables
        for i in itertools.islice(ints, n_units):
            lo, hi = x & mask, x >> cut
            exp[i] = c = ints[low_code[lo] + high_code[hi]]
            log[c] = i
            x = reduce(low[lo] + high[hi])
        if x != 1 or None in log[1:]:
            raise AssertionError("%d does not generate the units of %r" % (gen, self))
        exp *= 2
        # zech[k] = log(1 + gen^k), a reference into log.  1 + x moves only
        # the lowest base-p digit of x, and 1 + x = 0 exactly at x = -1,
        # k = n_units/2, where zech reads log[0] = None.
        zech = [
            log[x + 1 if x % p != p - 1 else x + 1 - p]
            for x in itertools.islice(exp, n_units)
        ]
        self._exp, self._log, self._zech = exp, log, zech
        self._n_units, self._half = n_units, n_units // 2
        self._arith = self._log_arith()

    def add(self, a, b):
        # tabled: a + b = a(1 + b/a), and a log difference < 0 indexes zech mod N
        zech = self._zech
        if zech is not None:
            if a == 0 or b == 0:
                return a or b
            log = self._log
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else self._exp[la + z]
        p, k = self.char, self.pdeg
        return _from_digits(
            [(x + y) % p for x, y in zip(_to_digits(a, p, k), _to_digits(b, p, k))], p
        )

    def neg(self, a):
        if self._zech is not None:
            return self._exp[self._log[a] + self._half] if a else 0
        p = self.char
        return _from_digits([-x % p for x in _to_digits(a, p, self.pdeg)], p)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        k = self._arith
        return k.code(k.mul(k.rep(a), k.rep(b)))

    def pow(self, a, e):
        if a == 0:
            return super().pow(a, e)
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % self._n_units]
        k = self._arith
        return k.code(k.pow(k.rep(a), e))

    def arith(self):
        """The field's _Arith record, built once (on logs by _build_tables):
        its arithmetic in the form it runs fastest in (see the module
        docstring).  rep maps a code into it and code back, pow takes units
        and frob is the q-th power, q = base.order.  No closure holds the
        field itself: a tower's list record holds only its base."""
        return self._arith

    def _log_arith(self):
        exp, log, zech, N = self._exp, self._log, self._zech, self._n_units
        q = self.base.order

        rep = log.__getitem__

        def code(a):
            return 0 if a is None else exp[a]

        def mul(a, b):
            return None if a is None or b is None else (a + b) % N

        def add(a, b):
            if a is None:
                return b
            if b is None:
                return a
            z = zech[b - a]
            return None if z is None else (a + z) % N

        def pow(a, e):
            return a * e % N

        def frob(a):
            return None if a is None else a * q % N

        return _Arith(rep, code, None, 0, mul, add, pow, frob)

    # --- Frobenius relative to the base field ---

    def frob_iter(self, a, i):
        """a^(q^i) where q is the base-field order; period self.degree."""
        return self.pow(a, self.base.order ** (i % self.degree))

    def __repr__(self):
        return "ExtensionField(%r, degree=%d)" % (self.base, self.degree)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.degree == self.degree
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.degree))


def field_make(p, s):
    """Construct F_q, q = p^s, for an odd prime p, presented modulo the
    lexicographically least monic irreducible of degree s over F_p."""
    if s < 1:
        raise FieldError("s must be >= 1")
    prime = PrimeField(p)
    if s == 1:
        return prime
    return ExtensionField(prime, s)


def ext_make(base, n):
    """Construct the working extension L = F_{q^n} over base = F_q."""
    return ExtensionField(base, n)


def check_same_field(f1, f2):
    if f1 is not f2 and f1 != f2:
        raise IncompatibleFieldError("operands belong to different fields")
