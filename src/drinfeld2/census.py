"""Isogeny-class census for given (q, P, m).

Decides which candidates X^2 - cX + mu P^m are admissible, that is, are
isogeny-class invariants (Gekeler, Trans. AMS 2008): an ordinary one
(P coprime to c) needs an imaginary quadratic K(sqrt(disc)), and a
supersingular one (P | c) also needs one place of K(sqrt(disc)) above P,
which is read off constants with no P-adic valuation and no squarefree
split (see `_c_parts`).  Enumerates the admissible candidates, evaluates
the closed-form counts, optionally sweeps the modules over L = F_{q^(md)}
to measure which classes are realized, and counts distinct Euler-Poincare
divisors.  The sweep computes one charpoly per Frobenius orbit of j,
scaled by F_q^*, plus gcd(q^2 - 1, |L| - 1) for g = 0.  It scales a
charpoly's coefficient tuple by each unit of F_q for its q - 1 keys, with
no Poly built.  It picks those representatives on discrete logs to the
least generator of L^*: there a coset of the k-th powers is a residue class
mod k and the Frobenius is a product, so the sweep keeps no set of field
elements.
P and m are checked once per family at the public entry points, and the
sweep bound before any census work.  One pass over the (c, mu) grid feeds
the verdict tallies, the chi groups and the admissible set.  It runs on
coefficient lists and builds no Poly per candidate: it raises P^m once;
forms -4 mu P^m and mu^-1 once per mu; and c^2, 1 - c and the verdict at P
once per c.  A candidate reads the degree and leading coefficient of
c^2 - 4 mu P^m off its top entries, and an admissible one keys its chi
group by the monic P^m + mu^-1 (1 - c).

Enumeration is the source of truth; closed forms are evaluated in exact
rational arithmetic and any mismatch is recorded as a discrepancy finding,
not an error.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import frobenius
from .ff import DomainError, _list_divmod, _list_mul, check_same_field, ext_make
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


def candidate_pairs(P, m):
    """All (c, mu) with deg c <= floor(md/2), mu a unit, in lexicographic
    order of (c coefficients low-first, mu)."""
    base = P.field
    bound = (m * (len(P.coeffs) - 1)) // 2
    for coeffs in itertools.product(range(base.order), repeat=bound + 1):
        c = Poly(base, coeffs)
        for mu in base.units():
            yield c, mu


def admissible_pairs(P, m):
    """(c, mu, verdict, chi) for every admissible candidate, chi the
    coefficient tuple of the monic generator P^m + mu^-1 (1 - c) of
    (1 - c + mu P^m).  P and m must already be checked.
    `candidate_pairs` yields one c object for all of its mu in turn, so the
    per-c parts are formed when that object changes."""
    base = P.field
    Pm = (P**m).coeffs
    # deg(1 - c) <= floor(md/2) < md, so chi agrees with P^m above index
    # floor(md/2) and is monic
    half = (len(Pm) - 1) // 2 + 1
    Pm_head, Pm_tail = Pm[:half], Pm[half:]
    per_mu = {mu: (_mu_parts(mu, Pm, base), base.inv(mu)) for mu in base.units()}
    squares = _unit_squares(base)
    add, mul = base.add, base.mul
    last = None
    for c, mu in candidate_pairs(P, m):
        if c is not last:
            last = c
            cc, at_P = _c_parts(c.coeffs, Pm, P, m)
            one_minus_c = [base.neg(x) for x in c.coeffs] + [0] * (half - len(c.coeffs))
            one_minus_c[0] = add(base.one, one_minus_c[0])
        minus_4mu_Pm, mu_inv = per_mu[mu]
        verdict = _weil_verdict(cc, at_P, minus_4mu_Pm, base, squares)
        if verdict.is_admissible():
            chi = [add(p, mul(mu_inv, x)) for p, x in zip(Pm_head, one_minus_c)]
            yield c, mu, verdict, tuple(chi) + Pm_tail


def _census_pass(P, m):
    """The one pass over the (c, mu) grid: (CensusReport with the verdict
    tallies, chi groups as in `chi_census`, {(c coeffs, mu): verdict})."""
    groups, admissible = {}, {}
    for c, mu, verdict, chi in admissible_pairs(P, m):
        groups.setdefault(chi, []).append((c.coeffs, mu))
        admissible[(c.coeffs, mu)] = verdict
    tally = Counter(admissible.values())
    report = CensusReport(
        q=P.field.order, d=int(P.deg), m=m, P=P,
        ordinary_count=tally[Verdict.ORDINARY],
        ss2_count=tally[Verdict.SUPERSINGULAR_2],
        ss3_count=tally[Verdict.SUPERSINGULAR_3],
        ss4_count=tally[Verdict.SUPERSINGULAR_4],
    )
    return report, groups, admissible


# --- closed forms -----------------------------------------------------------


def formula_case(d, m):
    """1, 2, 3 by the (m, d) parities; None for m odd, d even (no formula)."""
    if m % 2 == 1 and d % 2 == 1:
        return 1
    if m % 2 == 0 and d % 2 == 1:
        return 2
    if m % 2 == 0 and d % 2 == 0:
        return 3
    return None


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
    if case == 2:
        return Fraction(q - 1) * (
            Fraction(q - 1, 2) * Fraction(q) ** (md // 2)
            - Fraction(q) ** ((m - 2) * d // 2 + 1)
            + q
        )
    return Fraction(q - 1) * (
        Fraction(q - 1, 2) * Fraction(q) ** (md // 2)
        - Fraction(q) ** ((m - 2) * d // 2)
        + 1
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
    charpoly per Frobenius orbit of j, scaled by F_q^*, plus
    gcd(q^2 - 1, |L| - 1) for g = 0, with delta = gen^k chosen by its log
    k.  P and m must already be checked; the bound is checked first."""
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
    # A unit is gen^k for one k in Z/N, N = |L| - 1: for e | N the e-th
    # powers are the k divisible by e, and x -> x^(q^d) is k -> k q^d.
    gen, N = ext._least_generator(), order - 1
    # A constant twist by u in L^* is an isomorphism over L, so it keeps the
    # charpoly; it fixes gamma and maps (g, delta) to
    # (g u^(1-q), delta u^(1-q^2)).  For g = 0 only the coset of delta modulo
    # (L^*)^(q^2-1) matters, and gen^i for i < gcd(q^2 - 1, N) is one
    # delta from each.
    realized = set()
    for i in range(math.gcd(q * q - 1, N)):
        c, mu = frobenius._charpoly(ext, gamma, 0, ext.pow(gen, i))
        realized.add((c.coeffs, mu))
    # For g != 0 put j = g^(q+1)/delta.  The modules with a given j are
    # (v, v^(q+1)/j) for v in L^*, twists of (1, 1/j), and the charpoly of
    # the one at v is (zeta^-1 c, zeta^-2 mu) with zeta = N_{L/F_q}(v).  The
    # norm is onto F_q^*, so the one charpoly at g = 1 gives all q - 1 keys
    # of j.  The Frobenius x -> x^(q^d) fixes gamma and g = 1 and keeps the
    # charpoly, so one delta = gen^k per orbit is enough: the k that is
    # least in {k q^(di) mod N}.
    scalings = [(u, base.mul(u, u)) for u in base.units()]  # u = zeta^-1
    frobs = [pow(q ** int(P.deg), i, N) for i in range(1, m)]
    for k in range(N):
        if all(k <= k * f % N for f in frobs):
            c, mu = frobenius._charpoly(ext, gamma, ext.one, ext.pow(gen, k))
            for u, u2 in scalings:
                key = tuple(base.mul(u, e) for e in c.coeffs)
                realized.add((key, base.mul(u2, mu)))
    return realized


def _against_admissible(realized, admissible):
    """The `realize` tuple from the sweep's keys and the admissible map."""
    ordinary = {k for k, v in admissible.items() if v is Verdict.ORDINARY}
    return realized, set(admissible), ordinary, sorted(ordinary - realized)


def realize(P, m):
    """Collect the distinct Frobenius characteristic polynomials of the
    modules (gamma a fixed root of P, g in L, delta in L^*) over
    L = F_{q^(md)}: one charpoly per Frobenius orbit of j = g^(q+1)/delta,
    scaled by F_q^*, plus gcd(q^2 - 1, |L| - 1) for g = 0, each delta
    chosen by its log to the least generator of L^*.  The sweep bound is
    checked before the census pass.

    Returns (realized_keys, admissible_keys, ordinary_admissible_keys,
    missing_ordinary) where keys are (c coefficients, mu).
    """
    _check_family(P, m)
    realized = _sweep(P, m)
    return _against_admissible(realized, _census_pass(P, m)[2])


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
