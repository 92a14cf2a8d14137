"""Batch command-line front end.

One subcommand per capability: count, pmf, sample, dickman (rho, xi),
stein-verify, tv, bound, sweep, and check (re-parse a file the tool
wrote).  All randomized subcommands are deterministic given --seed, and
identical argv produce byte-identical output files: JSON is written with
sorted keys and no timestamps.

Exit codes: 0 success, 1 validation error or unwritable output path,
2 resource cap, or memory the machine refused.  A warning a library call
raises is printed to stderr as one ``warning:`` line.
"""

import argparse
import functools
import math
import re
import sys
import warnings

# only the standard modules above and errors here: each handler imports the
# modules it uses when it runs (json only where a command writes or reads it),
# and numpy only where it builds an array, so --version and the dickman point
# queries never load numpy
from . import __version__
from .errors import ResourceLimitError, require_sizes

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse reads -1e3 or -inf as an unknown option (only -2 and -.5 look like numbers to it);
    # no option here looks like a number, so every negative float literal is passed on as a value
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|infinity|nan)$", re.I)

    # argparse exits with code 2 on usage errors; the contract reserves 2
    # for resource caps, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_json(payload: dict, out) -> None:
    """Write the report with its schema version to ``out``, or print it."""
    import json

    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {out}")
    else:
        print(text)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` of strings and ints through ``csv.writer``,
    one row at a time.  Number columns go through :func:`_write_numbers` instead."""
    import csv  # only the commands that write string rows load the module

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_numbers(path, header, columns) -> None:
    """Write int and float columns through :func:`numtext.write_csv`, imported
    here: only the commands that write number files load the writer."""
    from .numtext import write_csv

    write_csv(path, header, columns)


def int_str(value: int) -> str:
    """Decimal digits of an int of any size (``str`` refuses more than 4300)."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def _fraction_type():
    """``fractions.Fraction``, or ``()``, of which nothing is an instance, while
    no module has imported ``fractions``: no Fraction exists before then, so
    start-up need not load the module."""
    return getattr(sys.modules.get("fractions"), "Fraction", ())


def _fraction_str(x) -> str:
    if isinstance(x, _fraction_type()):
        return f"{int_str(x.numerator)}/{int_str(x.denominator)}"
    return repr(x)


def _record_json(record, **renames: str) -> dict:
    """The fields of a result record as JSON values, each under its name or
    its new name in ``renames``: a Fraction as ``"p/q"``, a None field left
    out, and any other value as it is."""
    fraction = _fraction_type()
    return {
        renames.get(name, name): _fraction_str(value) if isinstance(value, fraction) else value
        for name, value in zip(record._fields, record)
        if value is not None
    }


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
    import numpy as np

    from .counting import count_table, log_fraction, table_mode

    mode = "exact" if args.exact else table_mode(args.n)
    table = count_table(args.n, args.r, mode)
    if mode == "exact":
        nu = table.fraction(args.n)
        print(f"|restricted set| = {int_str(table.count(args.n))}")
        print(f"nu = {_fraction_str(nu)} = {_positive_str(float(nu), log_fraction(nu))}")
    else:
        log_nu = float(table.log_view()[args.n])
        print(f"nu = {_positive_str(math.exp(log_nu), log_nu)}")
        print(f"log_nu = {log_nu!r}")
    if args.out:
        if mode == "exact":
            fractions = map(table.fraction, range(table.n_max + 1))
            rows = ((m, int_str(v.numerator), int_str(v.denominator)) for m, v in enumerate(fractions))
            _write_csv(args.out, ["m", "nu_exact_num", "nu_exact_den"], rows)
        else:
            logs = table.log_view()
            # math.exp, not np.exp: the two differ in the last bit on about one entry in twenty
            nu = np.fromiter(map(math.exp, logs), dtype=np.float64, count=len(logs))
            _write_numbers(args.out, ["m", "nu_double", "log_nu_double"], [range(len(logs)), nu, logs])
        print(f"table written to {args.out}")
    return 0


def _cmd_pmf(args) -> int:
    import numpy as np

    from .counting import joint_pmf

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
            warnings.warn(
                f"{below} of {len(pmf)} masses lie below the smallest normal double "
                "and are written as 0.0 or subnormal; --mode exact gives their true values"
            )
    return 0


def _cmd_sample(args) -> int:
    import numpy as np

    from .sampling import SamplerConfig, draw, draw_cycle_types

    cfg = SamplerConfig(
        n=args.n,
        r=args.r,
        method=args.method,
        mcmc_burn_in=args.burn_in,
        mcmc_thinning=args.thinning,
    )
    rng = np.random.default_rng(args.seed)
    rows = draw(cfg, args.count, rng) if args.full else draw_cycle_types(cfg, args.count, rng)
    if not args.out:
        for i, row in enumerate(rows.tolist() if args.full else rows):
            print(i, *row)
        return 0
    if args.full:
        _write_numbers(args.out, ["index", "mapping"], [range(len(rows)), rows])
    else:
        lines = ((i, " ".join(map(str, lengths))) for i, lengths in enumerate(rows))
        _write_csv(args.out, ["index", "cycle_type"], lines)
    print(f"{len(rows)} samples written to {args.out}")
    return 0


def _cmd_dickman(args) -> int:
    from .dickman import DickmanEvaluator, xi

    if args.dickman_command == "rho":
        ev = DickmanEvaluator()
        if args.out and not args.grid:
            raise ValueError("--out needs --grid; --t prints its value")
        if args.log and args.grid:
            raise ValueError("--log needs --t; --grid writes both rho and log_rho")
        if args.grid:
            start, stop, num = args.grid
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError(f"--grid START and STOP must be finite, got {start} and {stop}")
            if not (num.is_integer() and num >= 1):
                raise ValueError(f"--grid NUM must be a positive integer, got {num}")
            import numpy as np  # only the grid builds arrays; the point queries stay pure Python

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
            log_rho = ev.log_rho(args.t)
            print(repr(log_rho) if args.log else _positive_str(math.exp(log_rho), log_rho))
    else:  # xi
        print(repr(xi(args.t)))
    return 0


def _cmd_stein_verify(args) -> int:
    import numpy as np

    from .stein import CLOSED_FORMS, term_estimates_exact, term_estimates_mc, verify_closed_forms

    payload: dict = {"n": args.n, "r": args.r, "d": args.d, "seed": args.seed}
    if args.exhaustive:
        # verify_closed_forms checks its d_max with this rule; checked here, the message names --d
        require_sizes("1 <= r <= n, 1 <= d", r=args.r, n=args.n, d=args.d)
        report = verify_closed_forms(args.n, args.r, args.d)
        terms = term_estimates_exact(args.n, args.r, args.d) if args.d < args.r else None
        payload["mode"] = "exhaustive"
        payload["combinations_checked"] = report.checked
        payload["mismatches"] = [
            _record_json(m, mapping="witness_permutation", formula="closed_form") for m in report.mismatches
        ]
        payload["mismatch_counts"] = {which: report.mismatch_count(which) for which in CLOSED_FORMS}
    else:
        rng = np.random.default_rng(args.seed)
        terms = term_estimates_mc(args.n, args.r, args.d, args.samples, rng)
        payload["mode"] = "mc"
        payload["samples"] = args.samples
    if terms is not None:
        payload["terms"] = [_record_json(row) for row in terms.rows]
        payload["total_bound"] = float(terms.total)
    _emit_json(payload, args.out)
    return 0


def _tv_mc(n: int, r: int, d: int, samples: int, seed: int):
    """Empirical TV to the Poisson reference of ``samples`` cycle types drawn with ``seed``;
    the bootstrap uses ``seed + 1``."""
    import numpy as np

    from .distances import PoissonSpec, tv_empirical
    from .permutations import CountsVector
    from .sampling import SamplerConfig, draw_cycle_types

    require_sizes("1 <= d <= r <= n", d=d, r=r, n=n)
    types = draw_cycle_types(SamplerConfig(n, r), samples, np.random.default_rng(seed))
    vectors = [CountsVector.from_cycle_type(lengths, d) for lengths in types]
    return tv_empirical(vectors, PoissonSpec.cycle_reference(d), rng=np.random.default_rng(seed + 1))


def _cmd_tv(args) -> int:
    from .distances import tv_cycle_counts

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
    from .closedforms import macroscopic_bound, refined_bound

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
    from .closedforms import macroscopic_bound, refined_bound
    from .distances import tv_cycle_counts

    for name, values in (("n", args.n), ("r", args.r), ("d", args.d)):
        if min(values) < 1:
            raise ValueError(f"need every --{name} >= 1, got {min(values)}")
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
    import csv  # only the commands that read or write CSV load the module
    import json

    path = str(args.file)
    # a --full row holds all n images, so a field can pass the csv module's
    # 128 kB default; lift the process-wide limit only while this file is read
    limit = csv.field_size_limit(2**31 - 1)
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
    except (OSError, json.JSONDecodeError, csv.Error) as exc:
        print(f"unreadable: {exc}", file=sys.stderr)
        return 1
    finally:
        csv.field_size_limit(limit)
    print("ok")
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state in it, each call of ``parse_args`` filling a fresh namespace."""
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
    p.add_argument("--method", choices=["sequential", "mcmc"], default="sequential")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thinning", type=int, default=1)
    p.add_argument("--full", action="store_true", help="emit one-line arrays instead of cycle types")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("dickman", help="rho / xi numerics")
    dsub = p.add_subparsers(dest="dickman_command", required=True, parser_class=_Parser)
    q = dsub.add_parser("rho")
    at = q.add_mutually_exclusive_group(required=True)
    at.add_argument("--t", type=float)
    at.add_argument("--grid", type=float, nargs=3, metavar=("START", "STOP", "NUM"))
    q.add_argument("--log", action="store_true", help="print log rho instead")
    q.add_argument("--out", help="CSV destination for --grid")
    q.set_defaults(handler=_cmd_dickman)
    q = dsub.add_parser("xi")
    q.add_argument("--t", type=float, required=True)
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.handler(args)
        except ResourceLimitError as exc:
            message, code = f"resource cap: {exc}", 2
        except MemoryError as exc:
            message, code = f"resource: {exc}", 2
        except (ValueError, ArithmeticError, OSError) as exc:
            message, code = f"error: {exc}", 1
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
