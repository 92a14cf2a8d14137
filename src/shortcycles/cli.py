"""Batch command-line front end.

One subcommand per capability: count, pmf, sample, dickman (rho, xi,
ratio, gamma-check), stein-verify, tv, bound, sweep, and check (re-parse a
file the tool wrote).  All randomized subcommands are deterministic given
--seed, and identical argv produce byte-identical output files: JSON is
written with sorted keys and no timestamps.

Exit codes: 0 success, 1 validation error, 2 resource-cap error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .counting import count_table, int_str, joint_pmf, log_fraction, table_mode
from .dickman import DickmanEvaluator, gamma_bound_check, rho_ratio_check, xi
from .distances import PoissonSpec, macroscopic_bound, refined_bound, tv_cycle_counts, tv_empirical
from .errors import ResourceLimitError
from .permutations import CountsVector
from .sampling import SamplerConfig, draw, draw_cycle_types
from .stein import term_estimates_exact, term_estimates_mc, verify_closed_forms

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves 2
    # for resource caps, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._validation_exit(message))

    def _validation_exit(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _emit_json(payload: dict, out) -> None:
    """Write the report with its schema version to ``out``, or print it."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {out}")
    else:
        print(text)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` of strings and ints one line at a time,
    in the bytes ``csv.writer`` gives for fields that need no quoting: fields
    joined by ``,`` and each line ended by ``\r\n``.  A field holding ``,``,
    ``"``, ``\r`` or ``\n`` raises ValueError.  Number columns go through
    :func:`_write_numbers` instead."""
    with open(path, "w", newline="") as fh:
        for row in itertools.chain((header,), rows):
            line = ",".join(map(str, row))
            if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
                raise ValueError(f"CSV field would need quoting in row {row!r}")
            fh.write(line + "\r\n")


def _write_numbers(path, header, columns) -> None:
    """Write int and float columns through :func:`numtext.write_csv`, imported
    here: only the commands that write number files load the writer."""
    from .numtext import write_csv

    write_csv(path, header, columns)


def _fraction_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{int_str(x.numerator)}/{int_str(x.denominator)}"
    return repr(x)


def _positive_str(value: float, log_value: float) -> str:
    """repr of a positive float, or, where it is below the normal double
    range, scientific notation built from its natural log."""
    if value >= sys.float_info.min:
        return repr(value)
    decimal_log = log_value / math.log(10)
    exponent = math.floor(decimal_log)
    mantissa = float(f"{10.0 ** (decimal_log - exponent):.15g}")
    if mantissa >= 10.0:
        mantissa, exponent = mantissa / 10.0, exponent + 1
    return f"{mantissa!r}e{exponent}"


# -- subcommand handlers -----------------------------------------------------


def _cmd_count(args) -> int:
    mode = "exact" if args.exact else table_mode(args.n)
    table = count_table(args.n, args.r, mode)
    nu = table.fraction(args.n)
    if mode == "exact":
        print(f"|restricted set| = {int_str(table.count(args.n))}")
        print(f"nu = {_fraction_str(nu)} = {_positive_str(float(nu), log_fraction(nu))}")
    else:
        log_nu = float(table.log_view()[args.n])
        print(f"nu = {_positive_str(nu, log_nu)}")
        print(f"log_nu = {log_nu!r}")
    if args.out:
        if mode == "exact":
            rows = ((m, int_str(v.numerator), int_str(v.denominator)) for m, v in enumerate(table.values))
            _write_csv(args.out, ["m", "nu_exact_num", "nu_exact_den"], rows)
        else:
            logs = table.log_view()
            # math.exp, not np.exp: the two differ in the last bit on about one entry in twenty
            nu = np.fromiter(map(math.exp, logs), dtype=np.float64, count=len(logs))
            _write_numbers(args.out, ["m", "nu_double", "log_nu_double"], [range(len(logs)), nu, logs])
        print(f"table written to {args.out}")
    return 0


def _cmd_pmf(args) -> int:
    pmf = joint_pmf(args.n, args.r, args.d, mode=args.mode)
    if args.out:
        masses = pmf.masses if args.mode == "double" else np.fromiter(map(float, pmf.masses), np.float64, len(pmf))
        header = [f"c_{j}" for j in range(1, args.d + 1)] + ["probability"]
        _write_numbers(args.out, header, [*pmf.counts.T, masses])
        print(f"pmf written to {args.out} ({len(pmf)} support points)")
    else:
        for row, p in zip(pmf.counts.tolist(), pmf.mass_list()):
            print(" ".join(map(str, row)), _fraction_str(p))
    if args.mode == "double":
        below = int(np.count_nonzero(pmf.masses < sys.float_info.min))
        if below:
            print(
                f"warning: {below} of {len(pmf)} masses lie below the smallest normal double "
                "and are written as 0.0 or subnormal; --mode exact gives their true values",
                file=sys.stderr,
            )
    return 0


def _cmd_sample(args) -> int:
    cfg = SamplerConfig(
        n=args.n,
        r=args.r,
        method=args.method,
        mcmc_burn_in=args.burn_in,
        mcmc_thinning=args.thinning,
    )
    rng = np.random.default_rng(args.seed)
    if args.full:
        decimal = [str(i) for i in range(args.n)]
        lines = [" ".join([decimal[x] for x in p.mapping]) for p in draw(cfg, args.count, rng)]
    else:
        lines = [" ".join(map(str, lengths)) for lengths in draw_cycle_types(cfg, args.count, rng)]
    rows = list(enumerate(lines))
    header = ["index", "mapping" if args.full else "cycle_type"]
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"{len(rows)} samples written to {args.out}")
    else:
        for row in rows:
            print(*row)
    return 0


def _cmd_dickman(args) -> int:
    ev = DickmanEvaluator()
    if args.dickman_command == "rho":
        if args.grid is None and args.t is None:
            print("error: rho needs --t or --grid", file=sys.stderr)
            return 1
        if args.grid:
            start, stop, num = args.grid
            if not (num.is_integer() and num >= 1):
                raise ValueError(f"--grid NUM must be a positive integer, got {num}")
            ts = np.linspace(start, stop, int(num))
            log_rho = [ev.log_rho(t) for t in ts.tolist()]
            rho = list(map(math.exp, log_rho))  # ev.rho(t), without evaluating log rho twice
            if args.out:
                _write_numbers(args.out, ["t", "rho", "log_rho"], [ts, np.array(rho), np.array(log_rho)])
                print(f"grid written to {args.out}")
            else:
                for row in zip(ts.tolist(), rho, log_rho):
                    print(*row)
        else:
            value = ev.log_rho(args.t) if args.log else ev.rho(args.t)
            print(repr(value))
    elif args.dickman_command == "xi":
        print(repr(xi(args.t)))
    elif args.dickman_command == "ratio":
        report = rho_ratio_check(args.t, args.v, ev)
        print(f"ratio = {report.ratio!r}")
        print(f"predicted = {report.predicted!r}")
        print(f"relative_gap = {report.relative_gap!r}")
    else:  # gamma-check
        report = gamma_bound_check(args.t, ev)
        print(f"log_rho = {report.log_rho!r}")
        print(f"log_bound = {report.log_bound!r}")
        print(f"holds = {report.holds}")
    return 0


def _cmd_stein_verify(args) -> int:
    payload: dict = {"n": args.n, "r": args.r, "d": args.d, "seed": args.seed}
    if args.exhaustive:
        report = verify_closed_forms(args.n, args.r, args.d)
        terms = term_estimates_exact(args.n, args.r, args.d) if args.d < args.r else None
        payload["mode"] = "exhaustive"
        payload["combinations_checked"] = report.checked
        payload["mismatches"] = [
            {
                "which": m.which,
                "n": m.n,
                "r": m.r,
                "d": m.d,
                "k": m.k,
                "witness_permutation": list(m.mapping),
                "class_size": m.class_size,
                "enumerated": _fraction_str(m.enumerated),
                "closed_form": _fraction_str(m.formula),
            }
            for m in report.mismatches
        ]
        payload["mismatch_counts"] = {
            which: report.mismatch_count(which)
            for which in ("creation", "destruction", "destruction_rearranged")
        }
        if terms is not None:
            payload["terms"] = [
                {
                    "k": row.k,
                    "creation_term": _fraction_str(row.creation_term),
                    "destruction_term": _fraction_str(row.destruction_term),
                }
                for row in terms.rows
            ]
            payload["total_bound"] = float(terms.total)
    else:
        rng = np.random.default_rng(args.seed)
        terms = term_estimates_mc(args.n, args.r, args.d, args.samples, rng)
        payload["mode"] = "mc"
        payload["samples"] = args.samples
        payload["terms"] = [
            {
                "k": row.k,
                "creation_term": row.creation_term,
                "creation_se": row.creation_se,
                "destruction_term": row.destruction_term,
                "destruction_se": row.destruction_se,
            }
            for row in terms.rows
        ]
        payload["total_bound"] = terms.total
    _emit_json(payload, args.out)
    return 0


def _tv_mc(n: int, r: int, d: int, samples: int, seed: int):
    """Empirical TV to the Poisson reference of ``samples`` cycle types drawn with ``seed``;
    the bootstrap uses ``seed + 1``."""
    spec = PoissonSpec.cycle_reference(d)
    if not 1 <= d <= n:
        raise ValueError(f"d must be in 1..{n}, got {d}")
    types = draw_cycle_types(SamplerConfig(n, r), samples, np.random.default_rng(seed))
    vectors = [CountsVector.from_cycle_type(lengths, d) for lengths in types]
    return tv_empirical(vectors, spec, rng=np.random.default_rng(seed + 1))


def _cmd_tv(args) -> int:
    payload: dict = {"n": args.n, "r": args.r, "d": args.d, "mode": args.mode}
    if args.mode == "exact":
        payload["tv"] = tv_cycle_counts(args.n, args.r, args.d)
    else:
        estimate = _tv_mc(args.n, args.r, args.d, args.samples, args.seed)
        payload["tv"] = estimate.value
        payload["stderr"] = estimate.stderr
        payload["samples"] = estimate.sample_count
    _emit_json(payload, args.out)
    return 0


def _cmd_bound(args) -> int:
    if args.which in ("refined", "both"):
        bb = refined_bound(args.n, args.r, args.d, args.C)
        print(f"refined = {bb.total!r}")
        print(
            f"  harmonic_term={bb.harmonic_term!r} fixed_term={bb.fixed_term!r} "
            f"asymptotic_term={bb.asymptotic_term!r} (C={bb.constant}, u={bb.u!r}, H_d={bb.h_d!r})"
        )
    if args.which in ("macroscopic", "both"):
        print(f"macroscopic = {macroscopic_bound(args.n, args.r, args.d, args.C)!r} (C={args.C})")
    return 0


def _cmd_sweep(args) -> int:
    rows = []
    for n in args.n:
        for r in args.r:
            if r > n:
                continue
            for d in args.d:
                if d > r:
                    continue
                u = n / r
                if args.tv_mode == "exact":
                    tv = tv_cycle_counts(n, r, d)
                elif args.tv_mode == "mc":
                    tv = _tv_mc(n, r, d, args.samples, args.seed).value
                else:
                    tv = ""
                rows.append((n, r, d, u, tv, refined_bound(n, r, d, 1.0).total, macroscopic_bound(n, r, d, 1.0)))
    _write_csv(args.out, ["n", "r", "d", "u", "tv", "refined_C1", "macroscopic_C1"], rows)
    print(f"{len(rows)} rows written to {args.out}")
    return 0


def _cmd_check(args) -> int:
    path = str(args.file)
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict) or "schema_version" not in payload:
                print("missing schema_version", file=sys.stderr)
                return 1
        else:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if not header:
                    print("empty csv", file=sys.stderr)
                    return 1
                for row in reader:
                    if len(row) != len(header):
                        print("ragged csv row", file=sys.stderr)
                        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shortcycles", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("count", help="size and fraction of the bounded-cycle set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="force exact rationals")
    p.add_argument("--out", help="write the whole table as CSV")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("pmf", help="joint law of small-cycle counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "double"], default="exact")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser("sample", help="draw permutations with bounded cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", choices=["rejection", "sequential", "mcmc"], default="sequential")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thinning", type=int, default=1)
    p.add_argument("--full", action="store_true", help="emit one-line arrays instead of cycle types")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("dickman", help="rho / xi numerics")
    dsub = p.add_subparsers(dest="dickman_command", required=True, parser_class=_Parser)
    for name in ("rho", "xi", "ratio", "gamma-check"):
        q = dsub.add_parser(name)
        if name == "rho":
            q.add_argument("--t", type=float)
            q.add_argument("--log", action="store_true", help="print log rho instead")
            q.add_argument("--grid", type=float, nargs=3, metavar=("START", "STOP", "NUM"))
            q.add_argument("--out", help="CSV destination for --grid")
        else:
            q.add_argument("--t", type=float, required=True)
        if name == "ratio":
            q.add_argument("--v", type=float, required=True)
        q.set_defaults(handler=_cmd_dickman)

    p = sub.add_parser("stein-verify", help="event identities: exhaustive check or MC terms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON destination")
    p.set_defaults(handler=_cmd_stein_verify)

    p = sub.add_parser("tv", help="distance to the product-Poisson reference")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON destination")
    p.set_defaults(handler=_cmd_tv)

    p = sub.add_parser("bound", help="closed-form error bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--which", choices=["refined", "macroscopic", "both"], default="both")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("sweep", help="grid of tv values and both bounds, CSV out")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--r", type=int, nargs="+", required=True)
    p.add_argument("--d", type=int, nargs="+", required=True)
    p.add_argument("--tv-mode", choices=["exact", "mc", "skip"], default="exact")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("check", help="re-parse a file this tool wrote")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
