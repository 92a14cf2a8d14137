"""Workloads of the shortcycles benchmark and the checks on their outputs.

Each workload is a closed loop: one CLI command at a time, each started only
after the previous one returned.  Workloads are chosen so that every module
is exercised by one workload and bypassed by another:

* ``exact_law``: exact-rational and enumeration paths (``counting.joint_pmf``,
  ``distances.tv_exact``, the exhaustive ``stein`` tally).  No sampling and
  no Dickman numerics.
* ``sample_stream``: many short draws at n = 2000 (``sampling``,
  ``permutations.cycle_structure``, the ``stein`` closed forms,
  ``distances.tv_empirical``).  ``counting`` only builds one small table per
  command.
* ``large_n``: few long operations at large n and deep u (the O(n) table
  build, per-element sampling, Dickman panel construction), plus two
  untimed deep-tail probes that fail at the time the benchmark was written
  because the float nu table loses all precision past u ~ 25.

Every output is checked after the clock stops.  Exact values are compared
with ``reference.json`` (written by ``make_reference.py`` from exact
rationals, high-precision arithmetic or brute force); randomized outputs are
checked by meaning (row counts, partitions of n with parts <= r, bijections,
finite values in range), so a change of the random stream is not a failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("exact_law", "sample_stream", "large_n")

# Timing metric of each command kind; a workload reports those it runs.
COMMAND_METRICS = (
    "count_s",
    "pmf_s",
    "tv_exact_s",
    "tv_mc_s",
    "sample_s",
    "sample_full_s",
    "sample_mcmc_s",
    "stein_exhaustive_s",
    "stein_mc_s",
    "sweep_s",
    "dickman_grid_s",
)

# "full" is what the benchmark measures; "smoke" is a reduced copy with its
# own reference values, used as the warm-up pass and by smoke.py.  The rho grid steps by 0.2 so that
# it hits t = 2, 3 and 10, where rho is checked against the reference.
SIZES = {
    "full": {
        "tv": (60, 20, 4),
        "pmf": (80, 20, 4),
        "stein": (7, 5, 4),
        "sweep": ((40, 60), (10, 20), (2, 3)),
        "sample": (2000, 400, 64),
        "sample_full": (2000, 400, 48),
        "mcmc": (2000, 400, 16, 240, 20),  # n, r, count, burn-in, thinning
        "tv_mc": (500, 100, 3, 250),
        "stein_mc": (2000, 400, 4, 50),
        "count": (1_000_000, 100_000),
        "sample_large": (100_000, 10_000, 2),
        "grid": (1, 120, 596),
    },
    "smoke": {
        "tv": (20, 6, 2),
        "pmf": (20, 6, 3),
        "stein": (5, 4, 3),
        "sweep": ((10, 12), (4, 6), (1, 2)),
        "sample": (200, 40, 16),
        "sample_full": (200, 40, 8),
        "mcmc": (200, 40, 5, 50, 2),
        "tv_mc": (50, 10, 2, 100),
        "stein_mc": (200, 40, 3, 20),
        "count": (10_000, 1_000),
        "sample_large": (5_000, 500, 2),
        "grid": (1, 20, 96),
    },
}

# Deep-tail probes of large_n (u = 100 and u = 50); the same in every size.
PROBE_COUNT = (3000, 30)
PROBE_SAMPLE = (1000, 20, 4)

RHO_POINTS = (2.0, 3.0, 10.0)

TV_REL = 1e-9
NU_REL = 1e-9
RHO_REL = 1e-10
PMF_MASS_ABS = 1e-12
PMF_ENTRY_REL = 1e-10
CLOSED_FORM_REL = 1e-12


@dataclass
class Outcome:
    """What one CLI command left behind."""

    rc: int
    stdout: str
    stderr: str
    path: str | None


Check = Callable[[Outcome, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI command: ``metric`` names its timing, None marks an untimed probe."""

    label: str
    metric: str | None
    argv: tuple[str, ...]  # "{out}" stands for a fresh output path
    suffix: str | None  # output file suffix; None when the result is printed
    check: Check


def key(*values) -> str:
    return ",".join(str(v) for v in values)


def _args(*values) -> list[str]:
    return [str(x) for x in values]


# -- parsing helpers ---------------------------------------------------------


def _json(o: Outcome) -> dict:
    with open(o.path) as fh:
        return json.load(fh)


def _csv(o: Outcome) -> tuple[list[str], list[list[str]]]:
    with open(o.path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty csv")
    return rows[0], rows[1:]


def _close(label: str, got, want: float, rel: float) -> str | None:
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return f"{label}: {got!r} is not a finite number"
    if abs(got - want) > rel * abs(want):
        return f"{label}: {got!r} differs from reference {want!r} by more than {rel:g} relative"
    return None


def _first(messages) -> str | None:
    return next((m for m in messages if m), None)


def _partition_error(lengths: list[int], n: int, r: int) -> str | None:
    if any(not 1 <= x <= r for x in lengths):
        return f"cycle length outside 1..{r}"
    if sum(lengths) != n:
        return f"cycle lengths sum to {sum(lengths)}, not {n}"
    return None


def _mapping_error(mapping: list[int], n: int, r: int) -> str | None:
    if len(mapping) != n or sorted(mapping) != list(range(n)):
        return "row is not a bijection of 0..n-1"
    seen = bytearray(n)
    for start in range(n):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            length += 1
            x = mapping[x]
        if length > r:
            return f"cycle of length {length} > r={r}"
    return None


def _parse_nu(stdout: str) -> float | None:
    # "nu = 1.2e-11", "nu = np.float64(1.2e-11)" or "nu = p/q = 1.2e-11"
    for line in stdout.splitlines():
        if line.startswith("nu = "):
            text = line.rsplit("=", 1)[1].replace("np.float64(", "").strip(" )")
            try:
                return float(text)
            except ValueError:
                return None
    return None


# -- checks ------------------------------------------------------------------


def check_tv_exact(n, r, d) -> Check:
    def check(o, refs):
        return _close("tv", _json(o).get("tv"), refs["tv"][key(n, r, d)], TV_REL)

    return check


def check_pmf(n, r, d) -> Check:
    def check(o, refs):
        ref = refs["pmf"][key(n, r, d)]
        header, rows = _csv(o)
        if header != [f"c_{j}" for j in range(1, d + 1)] + ["probability"]:
            return f"unexpected header {header}"
        if len(rows) != ref["support_points"]:
            return f"{len(rows)} support points, reference has {ref['support_points']}"
        masses = []
        by_key = {}
        for row in rows:
            counts = [int(c) for c in row[:-1]]
            p = float(row[-1])
            if not (math.isfinite(p) and p > 0):
                return f"probability {p!r} is not positive and finite"
            if sum(j * c for j, c in enumerate(counts, start=1)) > n:
                return f"count vector {counts} needs more than n={n} elements"
            masses.append(p)
            by_key[key(*counts)] = p
        mass = math.fsum(masses)
        if abs(mass - 1.0) > PMF_MASS_ABS:
            return f"total mass {mass!r} is not 1 within {PMF_MASS_ABS:g}"
        return _first(
            _close(f"P[{k}]", by_key.get(k), want, PMF_ENTRY_REL) for k, want in ref["entries"].items()
        )

    return check


def check_stein_exhaustive(n, r, d) -> Check:
    def check(o, refs):
        ref = refs["stein"][key(n, r, d)]
        payload = _json(o)
        if payload.get("combinations_checked") != ref["combinations_checked"]:
            return f"combinations_checked {payload.get('combinations_checked')} != {ref['combinations_checked']}"
        if payload.get("mismatch_counts") != ref["mismatch_counts"]:
            return f"mismatch_counts {payload.get('mismatch_counts')} != {ref['mismatch_counts']}"
        if payload.get("terms") != ref["terms"]:
            return "exact bound terms differ from the reference rationals"
        return _close("total_bound", payload.get("total_bound"), ref["total_bound"], CLOSED_FORM_REL)

    return check


def check_sweep(ns, rs, ds) -> Check:
    def check(o, refs):
        header, rows = _csv(o)
        if header != ["n", "r", "d", "u", "tv", "refined_C1", "macroscopic_C1"]:
            return f"unexpected header {header}"
        expected = [(n, r, d) for n in ns for r in rs if r <= n for d in ds if d <= r]
        if [tuple(int(x) for x in row[:3]) for row in rows] != expected:
            return "sweep rows do not cover the requested grid in order"
        messages = []
        for (n, r, d), row in zip(expected, rows):
            refined, macroscopic = refs["bounds"][key(n, r, d)]
            messages += [
                _close(f"tv{(n, r, d)}", float(row[4]), refs["tv"][key(n, r, d)], TV_REL),
                _close(f"refined{(n, r, d)}", float(row[5]), refined, CLOSED_FORM_REL),
                _close(f"macroscopic{(n, r, d)}", float(row[6]), macroscopic, CLOSED_FORM_REL),
            ]
        return _first(messages)

    return check


def check_cycle_types(n, r, count) -> Check:
    def check(o, refs):
        header, rows = _csv(o)
        if header != ["index", "cycle_type"]:
            return f"unexpected header {header}"
        if [row[0] for row in rows] != [str(i) for i in range(count)]:
            return f"expected rows indexed 0..{count - 1}"
        return _first(_partition_error([int(x) for x in row[1].split()], n, r) for row in rows)

    return check


def check_mappings(n, r, count) -> Check:
    def check(o, refs):
        header, rows = _csv(o)
        if header != ["index", "mapping"]:
            return f"unexpected header {header}"
        if [row[0] for row in rows] != [str(i) for i in range(count)]:
            return f"expected rows indexed 0..{count - 1}"
        return _first(_mapping_error([int(x) for x in row[1].split()], n, r) for row in rows)

    return check


def check_tv_mc(samples) -> Check:
    def check(o, refs):
        payload = _json(o)
        tv, se = payload.get("tv"), payload.get("stderr")
        if not (isinstance(tv, float) and 0.0 <= tv <= 1.0):
            return f"tv {tv!r} outside [0, 1]"
        if not (isinstance(se, float) and math.isfinite(se) and se >= 0.0):
            return f"stderr {se!r} is not finite and >= 0"
        if payload.get("samples") != samples:
            return f"samples {payload.get('samples')} != {samples}"
        return None

    return check


def check_stein_mc(d, samples) -> Check:
    def check(o, refs):
        payload = _json(o)
        if payload.get("mode") != "mc" or payload.get("samples") != samples:
            return "report is not an mc report with the requested sample count"
        terms = payload.get("terms", [])
        if [t.get("k") for t in terms] != list(range(1, d + 1)):
            return f"expected terms for k = 1..{d}"
        for t in terms:
            for field in ("creation_term", "creation_se", "destruction_term", "destruction_se"):
                x = t.get(field)
                if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
                    return f"k={t['k']} {field} = {x!r} is not finite and >= 0"
        want = math.fsum((t["creation_term"] + t["destruction_term"]) / 2 for t in terms)
        return _close("total_bound", payload.get("total_bound"), want, CLOSED_FORM_REL)

    return check


def check_nu(n, r) -> Check:
    def check(o, refs):
        return _close("nu", _parse_nu(o.stdout), refs["nu"][key(n, r)], NU_REL)

    return check


def check_grid(start, stop, num) -> Check:
    def check(o, refs):
        header, rows = _csv(o)
        if header != ["t", "rho", "log_rho"]:
            return f"unexpected header {header}"
        if len(rows) != num:
            return f"{len(rows)} grid rows, expected {num}"
        ts, rhos, logs = ([float(row[i]) for row in rows] for i in range(3))
        if ts[0] != start or ts[-1] != stop or any(b <= a for a, b in zip(ts, ts[1:])):
            return "grid is not increasing from start to stop"
        if not all(math.isfinite(x) and x >= 0 for x in rhos) or not all(map(math.isfinite, logs)):
            return "rho or log rho is not finite"
        if any(b > a for a, b in zip(rhos, rhos[1:])):
            return "rho is not non-increasing"
        messages = []
        for t in RHO_POINTS:
            if start <= t <= stop:
                i = min(range(num), key=lambda j: abs(ts[j] - t))
                if abs(ts[i] - t) > 1e-12:
                    return f"grid misses t={t}"
                messages.append(_close(f"rho({t:g})", rhos[i], refs["rho"][repr(t)], RHO_REL))
        return _first(messages)

    return check


# -- workloads ---------------------------------------------------------------


def build(workload: str, size: str, seed: int) -> list[Op]:
    """The ops of one pass of ``workload`` at ``size``, in run order."""
    s = SIZES[size]
    seed = str(seed)
    if workload == "exact_law":
        n, r, d = s["tv"]
        pn, pr, pd = s["pmf"]
        sn, sr, sd = s["stein"]
        ns, rs, ds = s["sweep"]
        return [
            Op("tv", "tv_exact_s",
               ("tv", *_args("--n", n, "--r", r, "--d", d), "--seed", seed, "--out", "{out}"),
               ".json", check_tv_exact(n, r, d)),
            Op("pmf", "pmf_s",
               ("pmf", *_args("--n", pn, "--r", pr, "--d", pd), "--mode", "double", "--out", "{out}"),
               ".csv", check_pmf(pn, pr, pd)),
            Op("stein-verify --exhaustive", "stein_exhaustive_s",
               ("stein-verify", *_args("--n", sn, "--r", sr, "--d", sd), "--exhaustive", "--seed", seed,
                "--out", "{out}"),
               ".json", check_stein_exhaustive(sn, sr, sd)),
            Op("sweep", "sweep_s",
               ("sweep", "--n", *_args(*ns), "--r", *_args(*rs), "--d", *_args(*ds), "--seed", seed,
                "--out", "{out}"),
               ".csv", check_sweep(ns, rs, ds)),
        ]
    if workload == "sample_stream":
        n, r, count = s["sample"]
        fn, fr, fcount = s["sample_full"]
        mn, mr, mcount, burn, thin = s["mcmc"]
        tn, tr, td, tsamples = s["tv_mc"]
        en, er, ed, esamples = s["stein_mc"]
        return [
            Op("sample", "sample_s",
               ("sample", *_args("--n", n, "--r", r, "--count", count), "--seed", seed, "--out", "{out}"),
               ".csv", check_cycle_types(n, r, count)),
            Op("sample --full", "sample_full_s",
               ("sample", *_args("--n", fn, "--r", fr, "--count", fcount), "--full", "--seed", seed,
                "--out", "{out}"),
               ".csv", check_mappings(fn, fr, fcount)),
            Op("sample --method mcmc", "sample_mcmc_s",
               ("sample", *_args("--n", mn, "--r", mr), "--method", "mcmc",
                *_args("--count", mcount, "--burn-in", burn, "--thinning", thin), "--seed", seed,
                "--out", "{out}"),
               ".csv", check_cycle_types(mn, mr, mcount)),
            Op("tv --mode mc", "tv_mc_s",
               ("tv", *_args("--n", tn, "--r", tr, "--d", td), "--mode", "mc",
                *_args("--samples", tsamples), "--seed", seed, "--out", "{out}"),
               ".json", check_tv_mc(tsamples)),
            Op("stein-verify --samples", "stein_mc_s",
               ("stein-verify", *_args("--n", en, "--r", er, "--d", ed, "--samples", esamples),
                "--seed", seed, "--out", "{out}"),
               ".json", check_stein_mc(ed, esamples)),
        ]
    if workload == "large_n":
        cn, cr = s["count"]
        ln, lr, lcount = s["sample_large"]
        start, stop, num = s["grid"]
        qn, qr = PROBE_COUNT
        pn, pr, pcount = PROBE_SAMPLE
        return [
            Op("count", "count_s", ("count", *_args("--n", cn, "--r", cr)), None, check_nu(cn, cr)),
            Op("sample", "sample_s",
               ("sample", *_args("--n", ln, "--r", lr, "--count", lcount), "--seed", seed, "--out", "{out}"),
               ".csv", check_cycle_types(ln, lr, lcount)),
            Op("dickman rho --grid", "dickman_grid_s",
               ("dickman", "rho", "--grid", *_args(start, stop, num), "--out", "{out}"),
               ".csv", check_grid(start, stop, num)),
            Op("probe count u=100", None, ("count", *_args("--n", qn, "--r", qr)), None, check_nu(qn, qr)),
            Op("probe sample u=50", None,
               ("sample", *_args("--n", pn, "--r", pr, "--count", pcount), "--seed", seed, "--out", "{out}"),
               ".csv", check_cycle_types(pn, pr, pcount)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
