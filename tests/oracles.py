"""Fixtures and oracles shared by the tests.

They enumerate or transform modules by the definitions, so the library code
under test can be checked against them; nothing in drinfeld2 calls them.
"""

import itertools

from drinfeld2 import (
    ConsistencyError,
    DrinfeldModule,
    Poly,
    Verdict,
    height,
    kernel_size_exp,
    monic_irreducibles,
    squarefree_split,
)
from drinfeld2.ff import (
    _list_divmod, _list_gcd, _list_mul, _list_powmod, _prime_factors,
)
from drinfeld2.polyring import PolyDomainError


def pow_mod(base, e, mod):
    """base^e modulo mod, by the square-and-multiply of the list kernel."""
    return Poly(mod.field, _list_powmod(mod.field, base.coeffs, e, mod.coeffs))


def first_root(ext, P):
    """The least code in ext that is a root of P: the gamma census._sweep
    takes."""
    return next(x for x in ext.elements() if P.eval(x, field=ext) == ext.zero)


def all_modules(ext):
    """Every rank-2 module over L: gamma in L, g in L, delta in L^*."""
    for gamma in ext.elements():
        for g in ext.elements():
            for delta in ext.units():
                yield DrinfeldModule(ext, gamma, g, delta)


def tri_criterion_supersingular(dm, cp):
    """`classify.supersingular` by its three criteria, two of them in L{t}.

    Checks (i) module height = 2, (ii) P | c, (iii) Phi_P has trivial kernel,
    and insists all three agree.
    """
    phi_P = dm.phi(dm.P)
    h = height(phi_P)
    assert h % dm.d == 0
    H = h // dm.d
    assert H in (1, 2)
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


def twist_constant(dm, u):
    """Conjugate dm by a nonzero constant u: coefficients a_i -> a_i u^(1-q^i)."""
    ext = dm.ext
    if u == 0:
        raise ValueError("twist constant must be nonzero")
    uq = ext.frob_iter(u, 1)
    uq2 = ext.frob_iter(u, 2)
    g2 = ext.mul(dm.g, ext.mul(u, ext.inv(uq)))
    d2 = ext.mul(dm.delta, ext.mul(u, ext.inv(uq2)))
    return DrinfeldModule(ext, dm.gamma, g2, d2)


def twist_tau(dm):
    """Conjugate dm by t: all coefficients to the q-th power."""
    f = dm.ext.frob_iter
    return DrinfeldModule(dm.ext, f(dm.gamma, 1), f(dm.g, 1), f(dm.delta, 1))


def matrix_charpoly(ext, gamma, g, delta):
    """(c, mu) as frobenius._charpoly computes it, from the motive product
    M = A A^(1) ... A^(n-1) formed with Poly entries: each step maps a row
    (x, y) to (y, x a + y b) by generic polynomial products, inverting every
    conjugate of delta."""
    base = ext.base
    f = ext.frob_iter
    M = [[Poly.one(ext), Poly.zero(ext)], [Poly.zero(ext), Poly.one(ext)]]
    for i in range(ext.degree):
        inv = ext.inv(f(delta, i))
        a = Poly(ext, (ext.neg(ext.mul(f(gamma, i), inv)), inv))
        b = Poly.constant(ext, ext.neg(ext.mul(f(g, i), inv)))
        M = [[y, x * a + y * b] for x, y in M]
    c = Poly(base, (M[0][0] + M[1][1]).coeffs)
    mu = base.inv(ext.pow(delta, (ext.order - 1) // (base.order - 1)))
    if ext.degree % 2:
        mu = base.neg(mu)
    return c, mu


def least_generator(F):
    """The least code of F that generates F^*, searched from 1: u generates
    exactly when u^(N/r) != 1 for every prime r | N, N = |F| - 1."""
    N = F.order - 1
    return next(
        u for u in F.units()
        if all(F.pow(u, N // r) != F.one for r in _prime_factors(N))
    )


def rabin_irreducible(field, f):
    """Rabin's irreducibility test for monic f of degree d >= 1: f divides
    x^(B^d) - x, and gcd(f, x^(B^(d/r)) - x) = 1 for every prime r | d,
    B = field.order.  It raises x to the power B^d before it can reject f."""
    d = len(f) - 1
    if d == 1:
        return True
    B = field.order
    x = [0, field.one]
    if _list_powmod(field, x, B**d, f) != x:
        return False
    for r in _prime_factors(d):
        g = _list_powmod(field, x, B ** (d // r), f)
        g += [0] * (2 - len(g))
        g[1] = field.sub(g[1], field.one)
        if _list_gcd(field, f, g) != [field.one]:
            return False
    return True


def list_kernel_mul(F, a, b):
    """The product of codes a and b in the extension field F by the list
    kernel: the coefficient lists' product, reduced by F's modulus."""
    base = F.base
    prod = _list_mul(base, F.coords(a), F.coords(b))
    return F.from_coords(_list_divmod(base, prod, F.modulus)[1])


def split_walk_tables(F):
    """(exp, log, zech) by the split walk x -> x g on codes: a step adds, digit
    by digit, the products of g with the code's low and high halves, from
    tables of p^(pdeg/2) products each (rounded down and up).  The products
    come from the list kernel and the sums from the digit loop here, so the
    walk runs on neither the field's tables nor its packed arithmetic."""
    assert F._zech is None
    gen = F.generator
    p, n_units = F.char, F.order - 1

    def add(a, b):
        out, scale = 0, 1
        for _ in range(F.pdeg):
            (a, x), (b, y) = divmod(a, p), divmod(b, p)
            out += (x + y) % p * scale
            scale *= p
        return out

    split = p ** (F.pdeg // 2)
    low = [list_kernel_mul(F, lo, gen) for lo in range(split)]
    high = [list_kernel_mul(F, hi * split, gen) for hi in range(F.order // split)]
    exp = [0] * (2 * n_units)
    log = [None] * F.order  # 0 has no log
    x = F.one
    for i in range(n_units):
        exp[i] = x
        exp[i + n_units] = x
        log[x] = i
        hi, lo = divmod(x, split)
        x = add(low[lo], high[hi])
    # 1 + x moves only the lowest base-p digit of x
    zech = [
        log[x + 1 if x % p != p - 1 else x + 1 - p]
        for x in itertools.islice(exp, n_units)
    ]
    return exp, log, zech


def scan_monic_divisors(g):
    """All monic divisors of the monic polynomial g, by degree and then by
    coefficients low degree first, by trial division: each one has degree
    <= deg g / 2 or is the cofactor of one that has, so only those degrees
    are scanned (the library's divisor list before it factored g)."""
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


def constructive_products(fields):
    """(f, {e: product of the pi_i with e_i = e}, [(pi_i, e_i)]) for
    f = u * prod pi_i^e_i over one or two distinct monic irreducibles pi_i
    of each (field, degrees) in fields, each e_i in {1, 2, p, p + 1, 2p}, and
    units u cycling through 2 .. q - 1.  Multiplicities p and 2p leave Yun's
    loop a p-th-power residue, and all of f when every e_i is one of them
    (f' = 0)."""
    for field, degrees in fields:
        p = field.char
        pis = [pi for d in degrees for pi in monic_irreducibles(field, d)]
        units = itertools.cycle(range(2, field.order))
        for r in (1, 2):
            for factors in itertools.combinations(pis, r):
                for exps in itertools.product((1, 2, p, p + 1, 2 * p), repeat=r):
                    parts = {}
                    f = Poly.constant(field, next(units))
                    for pi, e in zip(factors, exps):
                        parts[e] = parts.get(e, Poly.one(field)) * pi
                        f = f * pi**e
                    yield f, parts, list(zip(factors, exps))


def product_minimal_polynomial(ext, x):
    """The minimal polynomial of x over F_q as the Poly product of X - y over
    the distinct Frobenius conjugates y of x."""
    f = Poly.one(ext)
    y = x
    while True:
        f = f * Poly(ext, (ext.neg(y), ext.one))
        y = ext.frob_iter(y, 1)
        if y == x:
            return Poly(ext.base, f.coeffs)


def is_square_unit(field, u):
    """Whether the unit u is a square in field^*, by Euler's criterion."""
    if u == 0:
        raise ZeroDivisionError("0 is not a unit")
    return field.pow(u, (field.order - 1) // 2) == field.one


def coset_representatives(ext, k):
    """One unit from each coset of the k-th powers in L^*, for k dividing
    |L| - 1; x is keyed by x^((|L| - 1)/k), whose kernel is (L^*)^k."""
    e = (ext.order - 1) // k
    reps = {}
    for x in ext.units():
        reps.setdefault(ext.pow(x, e), x)
        if len(reps) == k:
            break
    return list(reps.values())


def weil_verdict(c, mu, P, m):
    """The verdict of X^2 - cX + mu P^m through the squarefree split
    disc = g^2 omega: a supersingular candidate (P | c) needs P | omega or
    omega a non-square mod P, the Euler criterion in A/P = F_{q^d}."""
    base = P.field
    disc = c * c - (P**m).scale(base.mul(base.scalar(4), mu))
    if disc.is_zero():
        return Verdict.SUPERSINGULAR_4
    if int(disc.deg) % 2 == 0 and is_square_unit(base, disc.lc()):
        return Verdict.NOT_ADMISSIBLE
    if not (c % P).is_zero():
        return Verdict.ORDINARY
    _, omega = squarefree_split(disc)
    if not P.divides(omega):
        half = (base.order ** int(P.deg) - 1) // 2
        if pow_mod(omega % P, half, P).is_one():
            return Verdict.NOT_ADMISSIBLE
    if c.is_zero() and m % 2 == 1:
        return Verdict.SUPERSINGULAR_2
    return Verdict.SUPERSINGULAR_3


def poly_census_pass(P, m):
    """(chi groups, {(c coeffs, mu): verdict}) of the (c, mu) grid, as
    census._census_pass builds them, from Poly arithmetic: each candidate
    forms disc = c^2 - 4 mu P^m and, when admissible, (1 - c + mu P^m).monic()
    as Polys, and a supersingular one divides disc by P until a remainder is
    left, for every mu."""
    base = P.field
    d = int(P.deg)
    Pm = P**m
    squares = {base.mul(u, u) for u in base.units()}
    one = Poly.one(base)
    groups, admissible = {}, {}
    for coeffs in itertools.product(range(base.order), repeat=m * d // 2 + 1):
        c = Poly(base, coeffs)
        for mu in base.units():
            disc = c * c + Pm.scale(base.mul(base.scalar(-4), mu))
            if disc.is_zero():
                verdict = Verdict.SUPERSINGULAR_4
            elif disc.deg % 2 == 0 and disc.lc() in squares:
                verdict = Verdict.NOT_ADMISSIBLE
            elif not (c % P).is_zero():
                verdict = Verdict.ORDINARY
            else:
                k, (rest, u) = 0, divmod(disc, P)
                while u.is_zero():
                    k, (rest, u) = k + 1, divmod(rest, P)
                if k % 2 == 0 and pow_mod(u, (base.order**d - 1) // 2, P).is_one():
                    verdict = Verdict.NOT_ADMISSIBLE
                elif c.is_zero() and m % 2 == 1:
                    verdict = Verdict.SUPERSINGULAR_2
                else:
                    verdict = Verdict.SUPERSINGULAR_3
            if verdict.is_admissible():
                chi = (one - c + Pm.scale(mu)).monic()
                groups.setdefault(chi.coeffs, []).append((c.coeffs, mu))
                admissible[(c.coeffs, mu)] = verdict
    return groups, admissible


def proved_counts(q, d, m):
    """The census counts that the top of the discriminant proves, by the
    parities of m and d: a dict over "total", "ss2", "ss3" and "ss4" of
    those that are known, with k = floor(md/2).

    The candidates are the (c, mu) with deg c <= k and mu in F_q^*, and
    disc = c^2 - 4 mu P^m.  A candidate is SUPERSINGULAR_4 when disc = 0.
    Otherwise it needs the infinite place not to split (deg disc odd, or
    lc(disc) a non-square) and a verdict at P: ORDINARY when P does not
    divide c; for P | c only c = 0 and, for m even, c = lambda P^(m/2) with
    lambda in F_q^* pass, as SUPERSINGULAR_2 for m odd, SUPERSINGULAR_3
    for m even and d odd, and never for m and d even.  The multiples of P
    with deg <= k are the P h with deg h <= k - d: q^max(k + 1 - d, 0) of
    them.  q is odd, so 4 is a nonzero square.

    md odd: 2 deg c <= 2k < md for every c, so disc has the odd degree md
    and leading coefficient -4 mu.  It is never 0 and the infinite place
    never splits.  Each of the q^(k+1) - q^max(k+1-d, 0) c prime to P is
    ORDINARY for all q - 1 values of mu, and of the multiples of P only
    c = 0 passes (m is odd), as SUPERSINGULAR_2 for every mu.  So
    total = (q-1)(q^(k+1) - q^max(k+1-d, 0) + 1), SS2 = q - 1 and
    SS3 = SS4 = 0.

    m even, d odd: put S = P^(m/2).  For c = 0, disc = -4 mu P^m has even
    degree and passes exactly when -mu is a non-square: (q-1)/2 values of
    mu, each SUPERSINGULAR_3.  For c = lambda S, disc = (lambda^2 - 4 mu) P^m.
    It is 0 exactly at mu = lambda^2/4, one SUPERSINGULAR_4 per lambda.
    For the other mu, lambda^2 - 4 mu runs over F_q minus {0, lambda^2},
    which holds all (q-1)/2 non-squares, so (q-1)/2 values of mu per lambda
    pass as SUPERSINGULAR_3.  So SS3 = (q-1)/2 + (q-1)(q-1)/2 = q(q-1)/2,
    SS4 = q - 1 and SS2 = 0.

    m and d even: no c divisible by P passes at P, so SS2 = SS3 = 0, and
    disc = 0 exactly for c = lambda S, mu = lambda^2/4: SS4 = q - 1.

    m odd, d even: disc = 0 would make c^2 = 4 mu P^m, whose P-adic
    valuation m is odd, so SS4 = 0.  SS3 = 0 since m is odd.  Only c = 0
    passes at P, with disc = -4 mu P^m of even degree md, exactly when -mu
    is a non-square: SS2 = (q-1)/2.
    """
    k = m * d // 2
    if m * d % 2:
        total = (q - 1) * (q ** (k + 1) - q ** max(k + 1 - d, 0) + 1)
        return {"total": total, "ss2": q - 1, "ss3": 0, "ss4": 0}
    if m % 2 == 0 and d % 2:
        return {"ss2": 0, "ss3": q * (q - 1) // 2, "ss4": q - 1}
    if m % 2 == 0:
        return {"ss2": 0, "ss3": 0, "ss4": q - 1}
    return {"ss2": (q - 1) // 2, "ss3": 0, "ss4": 0}


def count_monic_irreducibles(q, degree):
    """Necklace count (1/d) sum_{e|d} mu(e) q^(d/e)."""

    def moebius(n):
        m = 1
        p = 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                m = -m
            p += 1
        return -m if n > 1 else m

    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += moebius(e) * q ** (degree // e)
    assert total % degree == 0
    return total // degree


def loop_poly_from_human(field, text):
    """polyring.poly_from_human as a per-character loop, the reference for
    the tokenizer: the same language, values and errors, in the same order.
    Parse sums of terms like '2*T^3', 'T', '1'; '-' is accepted."""
    s = text.replace(" ", "")
    if not s:
        raise PolyDomainError("empty polynomial")
    # split into signed terms
    terms = []
    cur = ""
    sign = 1
    for ch in s:
        if ch in "+-" and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and not cur:
            sign = sign if ch == "+" else -sign
        else:
            cur += ch
    if not cur:
        raise PolyDomainError("dangling sign in %r" % text)
    terms.append((sign, cur))

    coeffs = {}
    for sign, term in terms:
        if "*" in term:
            cpart, vpart = term.split("*", 1)
        elif term.startswith("T"):
            cpart, vpart = "1", term
        else:
            cpart, vpart = term, ""
        if vpart:
            if not vpart.startswith("T"):
                raise PolyDomainError("bad term %r in %r" % (term, text))
            rest = vpart[1:]
            if rest == "":
                power = 1
            elif rest.startswith("^"):
                try:
                    power = int(rest[1:])
                except ValueError:
                    raise PolyDomainError("bad term %r in %r" % (term, text)) from None
            else:
                raise PolyDomainError("bad term %r in %r" % (term, text))
        else:
            power = 0
        c = field.from_str(cpart)
        if sign < 0:
            c = field.neg(c)
        coeffs[power] = field.add(coeffs.get(power, 0), c)
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for k, v in coeffs.items():
        out[k] = v
    return Poly(field, out)
