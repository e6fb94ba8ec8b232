"""Isogeny-class census for given (q, P, m).

Decides which candidates X^2 - cX + mu P^m are admissible, that is, are
isogeny-class invariants (Gekeler, Trans. AMS 2008): an ordinary one
(P coprime to c) needs an imaginary quadratic K(sqrt(disc)), and a
supersingular one (P | c) also needs one place of K(sqrt(disc)) above P,
which is read off constants with no P-adic valuation and no squarefree
split (see `_at_P`).  Enumerates the admissible candidates, evaluates
the closed-form counts, optionally sweeps the modules over L = F_{q^(md)}
to measure which classes are realized, and counts distinct Euler-Poincare
divisors.  The sweep computes one charpoly per Frobenius orbit of twist
classes, scaled by F_q^* (the rule is in `_sweep`).  It keeps each
charpoly as one point of its F_q^* orbit, scaled to make c monic (c = 0 is
kept as it is), and scales the set of points by each unit of F_q once at
the end, on one product row per unit, with no Poly built.  It picks those
representatives on discrete logs to the least generator of L^*: there a
coset of the k-th powers is a residue class mod k and the Frobenius is a
product, so the sweep keeps no set of field elements.
P and m are checked once per family at the public entry points, and the
sweep bound before any census work.  One walk over the (c, mu) grid
(`admissible_pairs`) yields each admissible candidate's key
(c coefficients, mu) with its verdict, and keeps no state from one
candidate to the next.  It takes each c as its coefficient tuple, builds
no Poly, and spends no polynomial product or division on any c.  Once per
family the caller raises P^m, and the walk forms S = floor(sqrt(P^m)) and
R = P^m - S^2 for md even (`_sqrt_parts`) and the verdict at P of every
multiple of P of degree <= md/2.  A candidate reads the degree and
leading coefficient of c^2 - 4 mu P^m off the top entries of c, P^m, S and
R (`_disc_top`) and its verdict at P by one lookup.  The census pass
tallies the verdicts and keys each admissible candidate's chi group by the
monic P^m + mu^-1 (1 - c), one lookup per coefficient of c in rows built
once per mu with the 1 folded in, so no 1 - c is formed.  `realize` reads
the admissible map alone and builds no chi key.

Enumeration is the source of truth; closed forms are evaluated in exact
rational arithmetic and any mismatch is recorded as a discrepancy finding,
not an error.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import getitem

from . import frobenius
from .ff import (
    DomainError, _list_divmod, _list_mul, _list_trim, check_same_field, ext_make,
)
from .polyring import Poly, PolyDomainError, is_irreducible

REALIZE_BOUND_ENV = "DRINFELD2_REALIZE_MAX"
DEFAULT_REALIZE_BOUND = 5**4


class RealizationBoundError(DomainError):
    """The exhaustive sweep over L was refused as too large."""


@dataclass
class CensusReport:
    q: int
    d: int
    m: int
    P: Poly
    ordinary_count: int = 0
    ss2_count: int = 0
    ss3_count: int = 0
    ss4_count: int = 0
    formula_total: int | None = None
    realized_distinct: int | None = None
    realized_ordinary_coverage: float | None = None
    chi_distinct_enumerative: int | None = None
    chi_formula: int | None = None
    discrepancies: list = dc_field(default_factory=list)

    @property
    def total(self):
        return self.ordinary_count + self.ss2_count + self.ss3_count + self.ss4_count

    @property
    def case(self):
        return formula_case(self.d, self.m)

    def to_json(self):
        return {
            "q": self.q,
            "d": self.d,
            "m": self.m,
            "P": self.P.to_human(),
            "case": self.case,
            "ordinary_count": self.ordinary_count,
            "ss2_count": self.ss2_count,
            "ss3_count": self.ss3_count,
            "ss4_count": self.ss4_count,
            "total": self.total,
            "formula_total": self.formula_total,
            "realized_distinct": self.realized_distinct,
            "realized_ordinary_coverage": self.realized_ordinary_coverage,
            "chi_distinct_enumerative": self.chi_distinct_enumerative,
            "chi_formula": self.chi_formula,
            "discrepancies": list(self.discrepancies),
        }


CSV_HEADER = (
    "q,d,m,case,ordinary,ss2,ss3,ss4,total,formula_total,"
    "chi_distinct,chi_formula,realized_distinct,ordinary_coverage,discrepancies"
)


def csv_row(report):
    """The `to_json` values under CSV_HEADER, "" for None, and the quoted
    discrepancies last."""
    data = report.to_json()
    keys = (
        "q", "d", "m", "case", "ordinary_count", "ss2_count", "ss3_count",
        "ss4_count", "total", "formula_total", "chi_distinct_enumerative",
        "chi_formula", "realized_distinct", "realized_ordinary_coverage",
    )
    cells = ["" if data[k] is None else str(data[k]) for k in keys]
    return ",".join(cells + ['"%s"' % "; ".join(data["discrepancies"])])


# --- admissibility ----------------------------------------------------------


class Verdict(enum.Enum):
    ORDINARY = "ORDINARY"
    SUPERSINGULAR_2 = "SUPERSINGULAR_2"
    SUPERSINGULAR_3 = "SUPERSINGULAR_3"
    SUPERSINGULAR_4 = "SUPERSINGULAR_4"
    NOT_ADMISSIBLE = "NOT_ADMISSIBLE"

    def is_admissible(self):
        return self is not Verdict.NOT_ADMISSIBLE


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
    that place is read off m and d.  The verdict is `_weil_verdict` on the
    top of the discriminant (`_disc_top`) and the verdict at P (`_at_P`),
    the helpers the census pass runs on every candidate; with one c, P | c
    is decided by one division.
    """
    _check_family(P, m)
    check_same_field(c.field, P.field)
    F = P.field
    if mu not in F.units():
        raise PolyDomainError("mu must be a unit")
    if not c.is_zero() and c.deg > m * (len(P.coeffs) - 1) // 2:
        raise PolyDomainError("deg c exceeds the Hasse-Weil bound")
    Pm = (P**m).coeffs
    S, R = _sqrt_parts(F, Pm)
    at_P = Verdict.ORDINARY
    if not _list_divmod(F, c.coeffs, P.coeffs)[1]:
        at_P = _at_P(F, c.coeffs, S, m, len(P.coeffs) - 1)
    return _weil_verdict(_disc_top(F, c.coeffs, mu, Pm, S, R), at_P, _unit_squares(F))


def _unit_squares(base):
    """The squares of F_q^*."""
    return {base.mul(u, u) for u in base.units()}


def _sqrt_parts(F, Pm):
    """(S, R) from the coefficients of P^m: for md = 2k even, S is the
    polynomial part of sqrt(P^m) in F_q((1/T)), the monic of degree k with
    deg(P^m - S^2) < k, and R = P^m - S^2 (trimmed, [] when m is even and
    S = P^(m/2)); (None, None) for md odd."""
    n = len(Pm) - 1
    if n % 2:
        return None, None
    k = n // 2
    half = F.inv(F.scalar(2))
    S = [0] * k + [F.one]
    # entry 2k - t of S^2 is 2 s_(k-t) plus the s_i s_j with i + j = 2k - t
    # and k - t < i, j < k, all known: matching it with P^m fixes s_(k-t),
    # top down
    for t in range(1, k + 1):
        acc = Pm[n - t]
        for i in range(k - t + 1, k):
            acc = F.sub(acc, F.mul(S[i], S[n - t - i]))
        S[k - t] = F.mul(half, acc)
    R = _list_trim([F.sub(p, s) for p, s in zip(Pm, _list_mul(F, S, S))])
    return S, R


def _at_P(F, c, S, m, d):
    """The verdict at P of the coefficients c of a multiple of P, which holds
    once disc != 0 and the infinite place does not split; S as in
    `_sqrt_parts`."""
    # With v = v_P(c) and c != 0, vd <= deg c <= md/2.  For 2v < m,
    # disc = P^(2v) u with u = (c/P^v)^2 mod P a nonzero square: disc != 0
    # and P splits, whatever mu is.  Otherwise 2v = m and c = lambda P^(m/2)
    # = lambda S with lambda = lc c.  For these c and for c = 0,
    # disc = (lambda^2 - 4 mu) P^m = P^m u, u in F_q^* once disc != 0.  For
    # m odd (c = 0 only) one place above P ramifies.  For m even there is
    # one exactly when u is a non-square in A/P = F_(q^d); the infinite
    # place has already made u a non-square in F_q (deg disc = md is even),
    # and that stays one in F_(q^d) exactly when d is odd.
    if c and (m % 2 or c != tuple(F.mul(c[-1], s) for s in S)):
        return Verdict.NOT_ADMISSIBLE
    if m % 2:
        return Verdict.SUPERSINGULAR_2
    if d % 2:
        return Verdict.SUPERSINGULAR_3
    return Verdict.NOT_ADMISSIBLE


def _disc_top(F, c, mu, Pm, S, R):
    """(degree, leading coefficient) of disc = c^2 - 4 mu P^m, or None for
    disc = 0, from the coefficients of c (trimmed) and of P^m and from
    `_sqrt_parts`, with no product of polynomials.

    Put md = deg P^m and k = floor(md/2) >= deg c.  For 2 deg c < md the top
    is that of -4 mu P^m.  For deg c = k = md/2 with a = lc c, the entry at
    md is a^2 - 4 mu.  When that is 0, mu = a^2/4 and, with r = c - aS,
    disc = c^2 - a^2 (S^2 + R) = r (2aS + r) - a^2 R.  There deg r < k, and
    deg R < k <= k + deg r, so the top is that of r (2aS + r) when r != 0,
    that of -a^2 R when r = 0, and disc = 0 when R = 0 too.
    """
    n = len(Pm) - 1
    if 2 * len(c) <= n + 1:  # 2 deg c < md, c = 0 included
        return n, F.mul(F.scalar(-4), mu)
    a = c[-1]
    a2 = F.mul(a, a)
    lead = F.sub(a2, F.mul(F.scalar(4), mu))
    if lead:
        return n, lead
    i = n // 2 - 1
    while i >= 0 and c[i] == F.mul(a, S[i]):
        i -= 1
    if i >= 0:
        return n // 2 + i, F.mul(F.add(a, a), F.sub(c[i], F.mul(a, S[i])))
    if R:
        return len(R) - 1, F.neg(F.mul(a2, R[-1]))
    return None


def _weil_verdict(top, at_P, squares):
    """`weil_admissible` on checked inputs, from the top of disc
    (`_disc_top`), the verdict at P and the squares of F_q^*."""
    if top is None:
        # F = nu P^(m/2) in A: quaternionic square case
        return Verdict.SUPERSINGULAR_4
    # K(sqrt(disc)) is imaginary exactly when the infinite place does not
    # split: deg disc odd, or lc(disc) a non-square
    deg, lead = top
    if deg % 2 == 0 and lead in squares:
        return Verdict.NOT_ADMISSIBLE
    return at_P


def candidate_pairs(P, m):
    """All (c, mu) with deg c <= floor(md/2), mu a unit, in lexicographic
    order of (c coefficients low-first, mu); c is its trimmed coefficient
    tuple, as in Poly.coeffs."""
    base = P.field
    bound = (m * (len(P.coeffs) - 1)) // 2
    for coeffs in itertools.product(range(base.order), repeat=bound + 1):
        c = tuple(_list_trim(list(coeffs)))
        for mu in base.units():
            yield c, mu


def admissible_pairs(P, m, Pm):
    """((c coeffs, mu), verdict) for every admissible candidate, Pm the
    coefficients of P^m.  P and m must already be checked.

    No c costs a polynomial product or a division.  Once per family: S and
    R (`_sqrt_parts`) and the verdict at P of each multiple P h with
    deg h <= k - d, so that P | c is one lookup.  Each candidate reads its
    verdict off the top of disc (`_disc_top`) and its verdict at P by that
    lookup."""
    F = P.field
    d = len(P.coeffs) - 1
    k = (len(Pm) - 1) // 2
    S, R = _sqrt_parts(F, Pm)
    squares = _unit_squares(F)
    # P | c, deg c <= k, exactly when c = P h with deg h <= k - d
    multiples = {}
    for h in itertools.product(range(F.order), repeat=max(k - d + 1, 0)):
        c = tuple(_list_trim(_list_mul(F, h, P.coeffs)))
        multiples[c] = _at_P(F, c, S, m, d)
    for c, mu in candidate_pairs(P, m):
        at_P = multiples.get(c, Verdict.ORDINARY)
        verdict = _weil_verdict(_disc_top(F, c, mu, Pm, S, R), at_P, squares)
        if verdict.is_admissible():
            yield (c, mu), verdict


def _census_pass(P, m):
    """The one pass over the (c, mu) grid: (CensusReport with the verdict
    tallies, chi groups as in `chi_census`, {(c coeffs, mu): verdict}).

    chi is the coefficient tuple of the monic generator P^m + mu^-1 (1 - c)
    of (1 - c + mu P^m), that is at_zero[mu] - mu^-1 c, where at_zero[mu]
    is the chi of c = 0: P^m with mu^-1 added at index 0.  Below len(c)
    <= k + 1, entry i is rows[mu][i][x] for x the entry i of c, one lookup
    in a row built once per mu with the 1 folded in; from len(c) upward
    chi is at_zero[mu] itself."""
    F = P.field
    Pm = (P**m).coeffs
    k = (len(Pm) - 1) // 2
    at_zero, rows = [None] * F.order, [None] * F.order
    for mu in F.units():
        mu_inv = F.inv(mu)
        minus = F.neg(mu_inv)
        at_zero[mu] = (F.add(Pm[0], mu_inv),) + Pm[1:]
        rows[mu] = [
            [F.add(p, F.mul(minus, x)) for x in F.elements()]
            for p in at_zero[mu][:k + 1]
        ]
    admissible = dict(admissible_pairs(P, m, Pm))
    groups = {}
    for c, mu in admissible:
        chi = tuple(map(getitem, rows[mu], c)) + at_zero[mu][len(c):]
        groups.setdefault(chi, []).append((c, mu))
    # list.count compares by identity in C; a Counter would hash each Enum
    verdicts = list(admissible.values())
    report = CensusReport(
        q=P.field.order, d=int(P.deg), m=m, P=P,
        ordinary_count=verdicts.count(Verdict.ORDINARY),
        ss2_count=verdicts.count(Verdict.SUPERSINGULAR_2),
        ss3_count=verdicts.count(Verdict.SUPERSINGULAR_3),
        ss4_count=verdicts.count(Verdict.SUPERSINGULAR_4),
    )
    return report, groups, admissible


# --- closed forms -----------------------------------------------------------


# keyed by (m mod 2, d mod 2)
_FORMULA_CASES = {(1, 1): 1, (0, 1): 2, (0, 0): 3}


def formula_case(d, m):
    """1, 2, 3 by the (m, d) parities; None for m odd, d even (no formula)."""
    return _FORMULA_CASES.get((m % 2, d % 2))


def formula_total(q, d, m):
    """Closed-form isogeny-class count as an exact rational, or None when the
    (m odd, d even) regime has no published form.

    Bracketed exponents are read as floors, including negative arguments.
    """
    case = formula_case(d, m)
    if case is None:
        return None
    md = m * d
    if case == 1:
        hi = md // 2 + 1  # floor(md/2) + 1
        lo = ((m - 2) * d) // 2 + 1  # floor((m-2)d/2) + 1, floor of negatives
        return Fraction(q - 1) * (Fraction(q) ** hi - Fraction(q) ** lo + 1)
    # m even: cases 2 and 3 differ by one in the middle exponent and in the
    # constant, q against 1
    return Fraction(q - 1) * (
        Fraction(q - 1, 2) * Fraction(q) ** (md // 2)
        - Fraction(q) ** ((m - 2) * d // 2 + (case == 2))
        + (q if case == 2 else 1)
    )


def chi_formula(q, d, m):
    """Closed-form count of distinct Euler-Poincare divisors (exact rational),
    or None for m odd, d even."""
    case = formula_case(d, m)
    if case is None:
        return None
    md = m * d
    qf = Fraction(q, q - 1)
    if case == 1:
        hi = md // 2 + 1
        lo = ((m - 2) * d) // 2 + 1
        return qf * Fraction(q) ** hi - qf * Fraction(q) ** lo + 1
    head = Fraction(q * q + 1, 2 * q - 2) * Fraction(q) ** (md // 2)
    tail = qf * Fraction(q) ** ((m - 2) * d // 2 + 1)
    return head - tail + (q if case == 2 else 1)


def _closed_form(value, label, count, noun, discrepancies):
    """The closed form `value` as reported: its integer, or None when there
    is none or it is not an integer.  A non-integer, or an integer that
    differs from the enumerative `count`, is noted in discrepancies."""
    if value is None:
        return None
    if value.denominator != 1:
        discrepancies.append("%s is not an integer: %s" % (label, value))
        return None
    closed = int(value)
    if closed != count:
        discrepancies.append(
            "%s %d != enumerative %s %d" % (label, closed, noun, count)
        )
    return closed


# --- Euler-Poincare census --------------------------------------------------


def chi_census(P, m):
    """(number of distinct chi ideals, grouping dict) over admissible pairs.

    chi_Phi is the ideal (1 - c + mu P^m); ideals of A are compared by monic
    generator (generators differ by F_q^* units).
    """
    _check_family(P, m)
    groups = _census_pass(P, m)[1]
    return len(groups), groups


# --- brute-force realization ------------------------------------------------


def realize_bound():
    raw = os.environ.get(REALIZE_BOUND_ENV)
    if raw is None:
        return DEFAULT_REALIZE_BOUND
    try:
        return int(raw)
    except ValueError:
        raise RealizationBoundError(
            "%s=%r is not an integer" % (REALIZE_BOUND_ENV, raw)
        ) from None


def _sweep(P, m):
    """Distinct charpoly keys (c coefficients, mu) over L = F_{q^(md)}: one
    charpoly per Frobenius orbit of twist classes, scaled by F_q^*, with
    delta = gen^k chosen by its log k.  P and m must already be checked;
    the bound is checked first.

    For v in L^* take w with w^(q-1) = v.  Conjugating by w maps the module
    (g, delta) to (g v, delta v^(q+1)) and its charpoly (c, mu) to
    (zeta^-1 c, zeta^-2 mu) with zeta = N_{L/F_q}(v), and the norm is onto
    F_q^*.  So the charpoly of (1, delta) gives the keys of every g != 0
    module twisted from it, and that of (0, delta) the keys of the class of
    delta modulo (L^*)^(q+1): gcd(q + 1, |L| - 1) classes.  The Frobenius
    x -> x^(q^d) fixes gamma, 0 and 1 and keeps the charpoly, so one class
    per orbit is enough.  Each charpoly is kept as one point of its F_q^*
    orbit, with c made monic (c = 0 as it is), and the points are expanded
    once at the end, which merges points of the same orbit."""
    base = P.field
    q = base.order
    n = m * int(P.deg)
    order = q**n
    bound = realize_bound()
    if order > bound:
        raise RealizationBoundError(
            "|L| = %d exceeds the sweep bound %d (set %s to raise it)"
            % (order, bound, REALIZE_BOUND_ENV)
        )
    ext = ext_make(base, n)
    gamma = next(x for x in ext.elements() if P.eval(x, field=ext) == ext.zero)
    # A unit is gen^k for one k in Z/N, N = |L| - 1, gen the field's cached
    # generator: its class modulo the e-th powers, e | N, is k mod e, and
    # x^(q^d) is k q^d.  Each orbit keeps its least k.
    gen, N = ext.generator, order - 1
    # one product row per unit u = zeta^-1, mapping each code x to u x
    rows = {u: [base.mul(u, x) for x in base.elements()] for u in base.units()}
    frobs = [pow(q ** int(P.deg), i, N) for i in range(1, m)]
    points = set()
    for g, classes in ((ext.zero, math.gcd(q + 1, N)), (ext.one, N)):
        for k in range(classes):
            if all(k <= k * f % classes for f in frobs):
                c, mu = frobenius._charpoly(ext, gamma, g, ext.pow(gen, k))
                c = c.coeffs
                row = rows[base.inv(c[-1]) if c else base.one]
                points.add((tuple(map(row.__getitem__, c)), row[row[mu]]))
    return {
        (tuple(map(row.__getitem__, c)), row[row[mu]])
        for c, mu in points
        for row in rows.values()
    }


def _against_admissible(realized, admissible):
    """The `realize` tuple from the sweep's keys and the admissible map."""
    ordinary = {k for k, v in admissible.items() if v is Verdict.ORDINARY}
    return realized, set(admissible), ordinary, sorted(ordinary - realized)


def realize(P, m):
    """Collect the distinct Frobenius characteristic polynomials of the
    modules (gamma a fixed root of P, g in L, delta in L^*) over
    L = F_{q^(md)}: one charpoly per Frobenius orbit of twist classes,
    scaled by F_q^* (see `_sweep`), each delta chosen by its log to the
    least generator of L^*.  The sweep bound is checked before the census
    pass.

    Returns (realized_keys, admissible_keys, ordinary_admissible_keys,
    missing_ordinary) where keys are (c coefficients, mu).
    """
    _check_family(P, m)
    realized = _sweep(P, m)
    return _against_admissible(realized, dict(admissible_pairs(P, m, (P**m).coeffs)))


# --- full report ------------------------------------------------------------


def full_report(P, m, do_realize=False):
    _check_family(P, m)
    realized = _sweep(P, m) if do_realize else None
    report, groups, admissible = _census_pass(P, m)
    q, d, notes = report.q, report.d, report.discrepancies
    report.formula_total = _closed_form(
        formula_total(q, d, m), "formula_total", report.total, "total", notes
    )
    if report.case is None:
        notes.append("no closed form for m odd, d even")
    report.chi_distinct_enumerative = len(groups)
    report.chi_formula = _closed_form(
        chi_formula(q, d, m), "chi_formula", len(groups), "chi count", notes
    )

    if do_realize:
        realized, admissible, ordinary, missing = _against_admissible(
            realized, admissible
        )
        report.realized_distinct = len(realized)
        extraneous = realized - admissible
        if extraneous:
            report.discrepancies.append(
                "realized classes outside the admissible set: %s" % sorted(extraneous)
            )
        # never empty: c = 1 is ordinary for every mu when md is odd, and
        # for every mu with -mu a non-square of F_q when md is even
        covered = len(ordinary) - len(missing)
        report.realized_ordinary_coverage = covered / len(ordinary)
        if missing:
            report.discrepancies.append(
                "unrealized ordinary classes (c coeffs, mu): %s" % missing
            )
    return report
