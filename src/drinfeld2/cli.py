"""Command-line interface.

Subcommands operating on a single module (charpoly, classify, endring) take
the defining data via --p --s --n --gamma-T --g --delta; field elements are
comma-separated base-p digits, low degree first.  Subcommands operating on an
isogeny-class family (census, chi, realize) take the prime P (as a polynomial
over F_q, either 'T^2+1' or the coefficient list '1,0,1') or --d to select
the least monic irreducible of that degree, together with --m.

Each subcommand's handler computes its result and does no I/O: it returns
the JSON payload, the plain-text lines, the CSV text (None for the flattened
payload) and the discrepancies found.  main is the one place that writes the
output, to stdout or --out, and picks the exit code: 0 success, 1 domain
error (bad mathematical input), 2 usage error, 3 discrepancies found under
--strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import census as census_mod
from . import frobenius
from .classify import _end_order_json, classify as classify_module, endomorphism_order
from .drinfeld import DrinfeldModule
from .ff import DomainError, ext_make, field_make
from .polyring import PolyDomainError, least_irreducible_poly, poly_from_str

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_STRICT = 3


def _add_module_args(sub):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--s", type=int, default=1, help="q = p^s (default 1)")
    sub.add_argument("--n", type=int, required=True, help="L = F_{q^n}")
    sub.add_argument(
        "--gamma-T", required=True, help="gamma(T) in L, base-p digits '2,1,...'"
    )
    sub.add_argument("--g", required=True, help="t coefficient of Phi_T")
    sub.add_argument("--delta", required=True, help="t^2 coefficient, nonzero")


def _add_family_args(sub):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--s", type=int, default=1, help="q = p^s (default 1)")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--P", dest="P", help="monic irreducible P, e.g. 'T^2+1' or '1,0,1'")
    group.add_argument(
        "--d", type=int, help="use the least monic irreducible of this degree"
    )
    sub.add_argument("--m", type=int, required=True, help="n = m * deg P")


def _add_output_args(sub):
    sub.add_argument(
        "--output", choices=("json", "csv", "plain"), default="json",
        help="output format (default json)",
    )
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument(
        "--strict", action="store_true",
        help="exit with status 3 if any discrepancy is reported",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeld2",
        description="Exact arithmetic for rank-2 Drinfeld F_q[T]-modules.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, run, helptext in (
        ("charpoly", _cmd_charpoly, "Frobenius characteristic polynomial of one module"),
        ("classify", _cmd_classify, "full per-module classification report"),
        ("endring", _cmd_endring, "endomorphism-order data read off the discriminant"),
    ):
        sub = subs.add_parser(name, help=helptext)
        sub.set_defaults(run=run)
        _add_module_args(sub)
        _add_output_args(sub)

    for name, run, helptext in (
        ("census", _cmd_census, "enumerate admissible isogeny classes for (q, P, m)"),
        ("chi", _cmd_chi, "count distinct Euler-Poincare divisors for (q, P, m)"),
        ("realize", functools.partial(_cmd_census, do_realize=True),
         "brute-force which classes occur over F_{q^(md)}"),
    ):
        sub = subs.add_parser(name, help=helptext)
        sub.set_defaults(run=run)
        _add_family_args(sub)
        _add_output_args(sub)

    return parser


def _build_module(args):
    base = field_make(args.p, args.s)
    ext = ext_make(base, args.n)
    gamma = ext.from_str(args.gamma_T)
    g = ext.from_str(args.g)
    delta = ext.from_str(args.delta)
    return DrinfeldModule(ext, gamma, g, delta)


def _resolve_P(args):
    """P from --P or --d; the census checks P and m."""
    base = field_make(args.p, args.s)
    if args.P is not None:
        return poly_from_str(base, args.P)
    if args.d < 1:
        raise PolyDomainError("--d must be >= 1")
    return least_irreducible_poly(base, args.d)


def _emit(args, payload, plain_lines, csv_text):
    if args.output == "json":
        text = json.dumps(payload, indent=2)
    elif args.output == "csv":
        if csv_text is None:
            text = "\n".join(
                "%s,%s" % (k, json.dumps(v)) for k, v in _flatten(payload)
            )
        else:
            text = csv_text
    else:
        text = "\n".join(plain_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, prefix + k + "." if prefix else k + ".")
        return
    yield prefix.rstrip("."), obj


def _cmd_charpoly(args):
    dm = _build_module(args)
    cp = frobenius.charpoly(dm)
    payload = {"module": dm.to_json(), "charpoly": cp.to_json()}
    return payload, ["module: %r" % dm, "charpoly: %s" % cp], None, []


def _cmd_classify(args):
    dm = _build_module(args)
    report = classify_module(dm)
    payload = {"module": dm.to_json(), "report": report.to_json()}
    lines = [
        "module: %r" % dm,
        "charpoly: %s" % report.charpoly,
        "supersingular: %s" % report.is_supersingular,
        "height: %d" % report.height,
        "disc: %s" % report.disc,
        "end ring kind: %s" % report.end_ring_kind.value,
        "chi: %s" % report.chi,
    ]
    return payload, lines, None, []


def _cmd_endring(args):
    dm = _build_module(args)
    cp = frobenius.charpoly(dm)
    kind, g, omega, conductors, flagged = endomorphism_order(cp)
    payload = {
        "module": dm.to_json(),
        "charpoly": cp.to_json(),
        "end_ring_kind": kind.value,
        **_end_order_json(g, omega, conductors, flagged),
    }
    lines = [
        "module: %r" % dm,
        "charpoly: %s" % cp,
        "end ring kind: %s" % kind.value,
        "conductor g: %s" % g,
        "omega: %s" % omega,
        "admissible conductors: %s" % ", ".join(str(f) for f in conductors),
        "flagged (divisible by P): %s" % ", ".join(str(f) for f in flagged),
    ]
    return payload, lines, None, []


def _cmd_census(args, do_realize=False):
    P = _resolve_P(args)
    report = census_mod.full_report(P, args.m, do_realize=do_realize)
    lines = [
        "q=%d d=%d m=%d case=%s" % (report.q, report.d, report.m, report.case),
        "ordinary: %d" % report.ordinary_count,
        "supersingular (c=0): %d" % report.ss2_count,
        "supersingular (other): %d" % report.ss3_count,
        "supersingular (square): %d" % report.ss4_count,
        "total: %d" % report.total,
        "formula total: %s" % report.formula_total,
        "chi distinct: %s" % report.chi_distinct_enumerative,
        "chi formula: %s" % report.chi_formula,
    ]
    if report.realized_distinct is not None:
        lines.append("realized distinct: %d" % report.realized_distinct)
        lines.append("ordinary coverage: %s" % report.realized_ordinary_coverage)
    lines += ["discrepancy: %s" % note for note in report.discrepancies]
    csv_text = census_mod.CSV_HEADER + "\n" + census_mod.csv_row(report)
    return report.to_json(), lines, csv_text, report.discrepancies


def _cmd_chi(args):
    P = _resolve_P(args)
    count, groups = census_mod.chi_census(P, args.m)
    discrepancies = []
    closed_int = census_mod._closed_form(
        census_mod.chi_formula(P.field.order, int(P.deg), args.m),
        "chi_formula", count, "chi count", discrepancies,
    )
    payload = {
        "q": P.field.order,
        "P": P.to_human(),
        "m": args.m,
        "chi_distinct_enumerative": count,
        "chi_formula": closed_int,
        "class_sizes": sorted(len(v) for v in groups.values()),
        "discrepancies": discrepancies,
    }
    lines = [
        "q=%d P=%s m=%d" % (P.field.order, P, args.m),
        "chi distinct: %d" % count,
        "chi formula: %s" % closed_int,
    ] + ["discrepancy: %s" % note for note in discrepancies]
    return payload, lines, None, discrepancies


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, plain_lines, csv_text, discrepancies = args.run(args)
    except DomainError as exc:  # anything else is a bug and propagates
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    _emit(args, payload, plain_lines, csv_text)
    return EXIT_STRICT if args.strict and discrepancies else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
