"""Command line interface.

Subcommands:
  solve      run the Galerkin-Newton solver, emit the sine series as JSON
  certify    solve (or load) a series and emit the certification record
  enclose    full pipeline: solve -> certify -> two-sided enclosure report
  classical  closed-form upper-bound table for a list of exponents
  reproduce  canned configurations for the reference enclosures and table

Exit codes: 0 full success, 2 partial success (some sweep entries failed
certification; the final enclosure is still written), 1 hard error,
including a SoundnessViolation.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys

from .bounds import outward_decimal
from .certify import certify_ball
from .errors import SobembError
from .pipeline import (
    RunConfig,
    classical_table,
    emit_plot_data,
    report_csv,
    run_pipeline,
)
from .series import DomainRect, Series2D
from .solver import SolverConfig, initial_guess, newton_solve

EXIT_OK = 0
EXIT_HARD = 1
EXIT_PARTIAL = 2


def _parse_domain(text: str) -> DomainRect:
    try:
        l1, l2 = text.lower().split("x")
        return DomainRect(float(l1), float(l2))
    except (ValueError, SobembError) as exc:
        raise argparse.ArgumentTypeError(
            f"domain must look like '1x1' or '2.0x1.5': {exc}"
        )


def _parse_int_list(text: str) -> list:
    return [int(t) for t in text.split(",") if t]


def _parse_plot_grid(text: str) -> int:
    m = int(text)
    if m == 1 or m < 0:
        raise argparse.ArgumentTypeError(f"plot grid must be 0 (off) or at least 2, got {m}")
    return m


def _add_common(sub, exponent=True):
    if exponent:
        sub.add_argument("--p", type=int, default=3,
                         help="PDE exponent p (the enclosure targets C_{p+1})")
    sub.add_argument("--domain", type=_parse_domain,
                     default=DomainRect(1.0, 1.0), help="rectangle sides LxW")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sobemb",
        description="Certified two-sided enclosures of Sobolev embedding "
                    "constants on rectangles.",
        allow_abbrev=False,
    )
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="log solver iterations")
    sp = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):  # exact names: `--p` is no prefix of --p-list
        return sp.add_parser(name, allow_abbrev=False, **kw)

    s = add_parser("solve", help="run the approximate solver")
    _add_common(s)
    s.add_argument("--N", type=int, default=20, help="truncation order")

    s = add_parser("certify", help="certify an approximate solution")
    _add_common(s)
    s.add_argument("--N", type=int, help="truncation order of a re-solve (default 20)")
    s.add_argument("--in", dest="infile", default=None,
                   help="series JSON produced by 'solve', which fixes the domain "
                        "and N (otherwise re-solve)")
    s.set_defaults(domain=None)  # None: not given, as --in requires

    s = add_parser("enclose", help="full pipeline with an N sweep")
    _add_common(s)
    s.add_argument("--N", type=_parse_int_list, default=[10, 20, 30, 34],
                   help="comma-separated truncation sweep")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--plot-grid", type=_parse_plot_grid, default=0,
                   help="emit <out>.plot.csv samples on an MxM grid, M >= 2 (0: off)")

    s = add_parser("classical", help="closed-form upper-bound table")
    _add_common(s, exponent=False)
    s.add_argument("--p-list", type=_parse_int_list, default=[3, 4, 5],
                   help="Lebesgue exponents of the embedding")

    s = add_parser("reproduce", help="run the reference configurations")
    s.add_argument("--which", choices=("c3", "c4", "c5", "table", "all"),
                   default="c4")
    s.add_argument("--out", default=None)
    return ap


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_solve(args) -> int:
    cfg = SolverConfig(p=args.p, N=args.N)
    u = newton_solve(cfg, initial_guess(args.p, args.domain))
    _emit(u.to_json(), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.infile:
        with open(args.infile) as f:
            u = Series2D.from_json(f.read())
    else:
        cfg = SolverConfig(p=args.p, N=20 if args.N is None else args.N)
        u = newton_solve(cfg, initial_guess(args.p, args.domain or DomainRect(1.0, 1.0)))
    ball = certify_ball(u, args.p)
    _emit(ball.to_json(), args.out)
    return EXIT_OK if ball.positive else EXIT_PARTIAL


def _cmd_enclose(args) -> int:
    report = run_pipeline(RunConfig(p=args.p, domain=args.domain, N=args.N))
    text = report.to_json() if args.format == "json" else report_csv(report)
    _emit(text, args.out)
    if args.plot_grid and report.solutions:
        best_n = max(report.solutions)
        target = (args.out or "sobemb") + ".plot.csv"
        emit_plot_data(report.solutions[best_n], args.plot_grid, target)
    return EXIT_OK if report.fully_certified else EXIT_PARTIAL


def _cmd_classical(args) -> int:
    table = classical_table(args.p_list, args.domain)
    out = {
        "format": "sobemb-classical/1",
        "n": 2,
        "domain": args.domain.to_dict(),
        "rows": [
            {
                "p": row["p"],
                "corollary": row["corollary"].hex(),
                "corollary_decimal": outward_decimal(row["corollary"].hi, +1),
                "plum": row["plum"].hex(),
                "plum_decimal": outward_decimal(row["plum"].hi, +1),
            }
            for row in table
        ],
    }
    _emit(json.dumps(out, sort_keys=True, indent=2), args.out)
    return EXIT_OK


REPRODUCE_SWEEPS = {
    "c4": (3, [10, 20, 30, 34]),
    "c3": (2, [40, 56, 72]),
    "c5": (4, [12, 16, 20]),
}


def _cmd_reproduce(args) -> int:
    dom = DomainRect(1.0, 1.0)
    results = {}
    status = EXIT_OK
    targets = ["c4", "c3", "c5", "table"] if args.which == "all" else [args.which]
    for t in targets:
        if t == "table":
            table = classical_table([3, 4, 5], dom)
            results["table"] = {
                str(row["p"]): {
                    "corollary": outward_decimal(row["corollary"].hi, +1),
                    "plum": outward_decimal(row["plum"].hi, +1),
                }
                for row in table
            }
            continue
        p, sweep = REPRODUCE_SWEEPS[t]
        report = run_pipeline(RunConfig(p=p, domain=dom, N=sweep))
        if not report.fully_certified:
            status = EXIT_PARTIAL
        results[t] = {
            "lower": outward_decimal(report.final.lower, -1),
            "upper": outward_decimal(report.final.upper, +1),
            "sources": report.final.sources,
        }
    _emit(json.dumps(results, sort_keys=True, indent=2), args.out)
    return status


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "certify" and args.infile and (
            args.domain is not None or args.N is not None):
        ap.error("certify --in takes the domain and N from the file; "
                 "--domain and --N go with a re-solve only")
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s %(message)s",
    )
    handler = {
        "solve": _cmd_solve,
        "certify": _cmd_certify,
        "enclose": _cmd_enclose,
        "classical": _cmd_classical,
        "reproduce": _cmd_reproduce,
    }[args.command]
    try:
        return handler(args)
    except (SobembError, OSError) as exc:  # OSError: reading --in, writing --out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_HARD


def entry() -> int:
    """The process entry point (console script, `python -m sobemb.cli`)."""
    # the heap built by the imports lives to the end of the process: frozen,
    # the cyclic GC never walks it again, in the run or at interpreter exit
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
