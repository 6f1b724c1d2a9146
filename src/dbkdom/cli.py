"""Command line surface: queries, sweeps, verification, export, problems.

Subcommands:

* ``gamma``    classify one instance and print the result
* ``sweep``    classify a parameter grid, one row per instance
* ``verify``   check a candidate dominating set and print the certificate
* ``problems`` empirical search for violations of two open conjectures,
  rendered from the reports in ``dbkdom.problems``
* ``export``   write the arc list of one instance (edge list or DOT)

Exit codes: 0 success/exact/valid, 1 invalid set, counterexample found or
output closed early, 2 usage error, 3 bracket only, 4 inconclusive.

Human-readable output ("table") is a rendering of the same dict that the
JSON output serializes; there is no second computation path.  Sweep rows
are emitted in lexicographic (family, n, d, k) order regardless of how
they were computed, so runs with the same flags produce identical output
except for the wall-time column.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

from .construct import classify
from .digraph import FAMILIES, GeneralizedDigraph, VertexSet, export_lines
from .domination import verify
# unused here; perfbench/tracing.py wraps these names on this module
from .oracle import coverage_table, exists_dominating_of_size  # noqa: F401
from .oracle import DEFAULT_LIMITS, OracleLimits
from .problems import (CONSISTENT, COUNTEREXAMPLE, INCONCLUSIVE_VERDICT,
                       PROBLEM_DEBRUIJN, PROBLEMS, debruijn_necessity_report,
                       instances, kautz_upper_report)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BRACKET = 3
EXIT_INCONCLUSIVE = 4

CSV_COLUMNS = ("family", "n", "d", "k", "lower", "upper", "gamma", "method",
               "witness", "ms")

DEFAULT_PROBLEM_N = "2..60"
DEFAULT_PROBLEM_D = "2..5"
DEFAULT_PROBLEM_K = "1..4"


class UsageError(ValueError):
    """Bad flags or malformed values; rendered as exit code 2, like every
    ValueError that reaches ``main``."""


def parse_range(text: str, what: str) -> list[int]:
    """Parse '7' or '2..60' (inclusive) into a list of ints."""
    text = text.strip()
    try:
        if ".." in text:
            left, right = text.split("..", 1)
            a, b = int(left), int(right)
            if a > b:
                raise UsageError(f"{what}: empty range {text!r}")
            return list(range(a, b + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(
            f"{what}: expected an integer or a..b range, got {text!r}"
        ) from None


def parse_set_literal(text: str, n: int) -> VertexSet:
    members = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        try:
            v = int(token)
        except ValueError:
            raise UsageError(f"set literal: bad member {token!r}") from None
        if not 0 <= v < n:
            raise UsageError(f"set literal: member {v} outside [0, {n})")
        members.append(v)
    if not members:
        raise UsageError("set literal: no members")
    return VertexSet.from_members(n, members)


def resolve_limits(args) -> OracleLimits:
    budget, max_n = args.oracle_budget, args.oracle_max_n
    # OracleLimits refuses a negative limit too; this message names the flag
    for key, value in (("oracle_budget", budget), ("oracle_max_n", max_n)):
        if value is not None and value < 0:
            raise UsageError(f"{key} must be >= 0, got {value}")
    return OracleLimits(max_nodes=budget, max_n=max_n)


def _checked(ranges: dict) -> dict:
    """The n, d and k value lists, refused when one holds a value no
    instance can have."""
    for key, least in (("d", 2), ("k", 1), ("n", 1)):
        if min(ranges[key]) < least:
            raise UsageError(f"{key} must be >= {least}")
    return ranges


def _resolve_ranges(args) -> dict:
    return _checked({key: parse_range(getattr(args, key), key)
                     for key in "ndk"})


def _open_out(path: str | None):
    """Stdout, or the --out file opened for writing.  Every command opens
    it before its work, so an unwritable path fails before any is done."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise UsageError(
            f"cannot write --out {path}: {e.strerror or e}") from None


def _render_kv_table(pairs: list[tuple[str, str]]) -> str:
    width = max(len(key) for key, _ in pairs)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in pairs)


def _gamma_table(row: dict) -> str:
    # an error row has no bounds
    pairs = [(key, "-" if row[key] is None else str(row[key]))
             for key in ("family", "n", "d", "k", "lower", "upper")]
    pairs.append(("gamma", "?" if row["gamma"] is None else str(row["gamma"])))
    if row["bracket"]:
        pairs.append(("bracket", "{%d..%d}" % tuple(row["bracket"])))
    pairs.append(("method", row["method"]))
    witness = row["witness"]
    pairs.append(("witness", ";".join(map(str, witness)) if witness else "-"))
    for name, fired in row["conditions"].items():
        pairs.append((f"condition {name}", "yes" if fired else "no"))
    if "error" in row:
        pairs.append(("error", row["error"]))
    return _render_kv_table(pairs)


def classify_row(family: str, n: int, d: int, k: int,
                 limits: OracleLimits) -> dict:
    """One sweep row; failures are captured in-row so sweeps never abort."""
    started = time.perf_counter()
    try:
        g = GeneralizedDigraph(family=family, n=n, d=d)
        row = classify(g, k, limits).to_dict()
    except Exception as e:
        row = {"family": family, "n": n, "d": d, "k": k, "lower": None,
               "upper": None, "gamma": None, "bracket": None,
               "method": "error", "nodes": None, "witness": None,
               "conditions": {},
               "error": f"{type(e).__name__}: {e}"}
    row["ms"] = int((time.perf_counter() - started) * 1000)
    return row


def row_to_csv_fields(row: dict) -> list[str]:
    def cell(value):
        return "" if value is None else str(value)

    witness = row.get("witness")
    return [row["family"], cell(row["n"]), cell(row["d"]), cell(row["k"]),
            cell(row["lower"]), cell(row["upper"]), cell(row["gamma"]),
            row["method"],
            ";".join(map(str, witness)) if witness else "",
            cell(row.get("ms"))]


# row exit codes from least to most severe
_ROW_EXITS = (EXIT_OK, EXIT_BRACKET, EXIT_INCONCLUSIVE, EXIT_INVALID)


def _row_exit(row: dict) -> int:
    if row["method"] == "error":
        return EXIT_INVALID
    if row["method"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_BRACKET if row["gamma"] is None else EXIT_OK


def write_rows(fh, rows, fmt: str) -> int:
    """Write rows as CSV (header first) or JSON lines, flushing each one so
    a killed run keeps every finished row; keeps none of them, and returns
    the most severe row exit code (0 for no rows)."""
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
    worst = EXIT_OK
    for row in rows:
        if fmt == "csv":
            writer.writerow(row_to_csv_fields(row))
        else:
            fh.write(json.dumps(row) + "\n")
        fh.flush()
        worst = max(worst, _row_exit(row), key=_ROW_EXITS.index)
    return worst


def cmd_gamma(args) -> int:
    limits = resolve_limits(args)
    _checked({key: [getattr(args, key)] for key in "ndk"})
    # refuses n < d; past this point a failure is an error row, exit 1
    GeneralizedDigraph(family=args.family, n=args.n, d=args.d)
    with _open_out(args.out) as fh:
        row = classify_row(args.family, args.n, args.d, args.k, limits)
        if args.format == "json":
            fh.write(json.dumps(row, indent=2) + "\n")
        elif args.format == "csv":
            write_rows(fh, [row], "csv")
        else:
            fh.write(_gamma_table(row))
    return _row_exit(row)


def sweep_rows(families: tuple[str, ...], ns: list[int], ds: list[int],
               ks: list[int], limits: OracleLimits, jobs: int = 1):
    """The rows of the grid's ``instances``, yielded in output order as
    they finish."""
    tasks = [(*inst, limits) for inst in instances(families, ns, ds, ks)]
    # the pool starts every worker at the first submit, so never ask it
    # for more than there are tasks or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules cost every process start
        # a third of its import time
        import signal
        from concurrent.futures import ProcessPoolExecutor
        # workers die on Ctrl-C, and leaving early drops the queued chunks
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_DFL))
        try:
            chunk = max(1, len(tasks) // (workers * 8))
            yield from pool.map(classify_row, *zip(*tasks), chunksize=chunk)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for task in tasks:
            yield classify_row(*task)


def cmd_sweep(args) -> int:
    limits = resolve_limits(args)
    ranges = _resolve_ranges(args)
    if args.jobs < 1:
        raise UsageError("jobs must be a positive integer")
    families = FAMILIES if args.family == "both" else (args.family,)
    with _open_out(args.out) as fh:
        return write_rows(fh, sweep_rows(families, ranges["n"], ranges["d"],
                                         ranges["k"], limits, args.jobs),
                          args.format)


def cmd_verify(args) -> int:
    g = GeneralizedDigraph(family=args.family, n=args.n, d=args.d)
    cert = verify(g, parse_set_literal(args.set, args.n), args.k).to_dict()
    with _open_out(args.out) as fh:
        if args.format == "json":
            fh.write(json.dumps(cert, indent=2) + "\n")
        else:
            pairs = [(key, str(cert[key]))
                     for key in ("family", "n", "d", "k")]
            pairs.append(("set", ";".join(map(str, cert["set"]))))
            pairs.append(("valid", "yes" if cert["valid"] else "no"))
            pairs.append(("uncovered",
                          ";".join(map(str, cert["uncovered"])) or "-"))
            fh.write(_render_kv_table(pairs))
    return EXIT_OK if cert["valid"] else EXIT_INVALID


def _problem_table(report: dict) -> str:
    lines = [f"problem: {report['problem']}",
             f"question: {report['question']}"]
    counts = report["counts"]
    lines.append("counts: " + ", ".join(
        f"{name}={counts[name]}"
        for name in (CONSISTENT, COUNTEREXAMPLE, INCONCLUSIVE_VERDICT)))
    shown = [row for row in report["rows"]
             if row["verdict"] != CONSISTENT]
    for row in shown[:50]:
        cells = [f"{key}={row[key]}" for key in ("n", "d", "k")]
        cells.append(f"verdict={row['verdict']}")
        if row.get("certificate"):
            cells.append("set=" +
                         ";".join(map(str, row["certificate"]["set"])))
        lines.append("  " + " ".join(cells))
    if len(shown) > 50:
        lines.append(f"  ... {len(shown) - 50} more non-consistent rows")
    return "\n".join(lines) + "\n"


def _exit_for_reports(reports: list[dict]) -> int:
    if any(r["counts"][COUNTEREXAMPLE] for r in reports):
        return EXIT_INVALID
    if any(r["counts"][INCONCLUSIVE_VERDICT] for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_problems(args) -> int:
    limits = resolve_limits(args)
    ranges = _resolve_ranges(args)
    selected = PROBLEMS if args.problem == "all" else (args.problem,)
    with _open_out(args.out) as fh:
        reports = []
        for tag in selected:
            build = (debruijn_necessity_report if tag == PROBLEM_DEBRUIJN
                     else kautz_upper_report)
            reports.append(build(ranges["n"], ranges["d"], ranges["k"],
                                 limits))
        if args.format == "json":
            payload = reports[0] if len(reports) == 1 else {"reports": reports}
            fh.write(json.dumps(payload, indent=2) + "\n")
        else:
            fh.write("".join(_problem_table(r) for r in reports))
    return _exit_for_reports(reports)


def cmd_export(args) -> int:
    g = GeneralizedDigraph(family=args.family, n=args.n, d=args.d)
    lines = export_lines(g, args.format)
    with _open_out(args.out) as fh:
        fh.writelines(lines)
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--family", required=True, choices=list(FAMILIES))
    sub.add_argument("-n", type=int, required=True, help="order")
    sub.add_argument("-d", type=int, required=True, help="degree")
    sub.add_argument("-k", type=int, required=True, help="radius")
    sub.add_argument("--out", help="write output to this file")


def _add_oracle_flags(sub):
    sub.add_argument("--oracle-budget", type=int,
                     help="search node budget (0 disables the oracle)")
    sub.add_argument("--oracle-max-n", type=int, default=DEFAULT_LIMITS.max_n,
                     help="largest order the oracle will attempt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbkdom",
        description=("distance domination numbers of generalized de Bruijn "
                     "and Kautz digraphs"))
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gamma", help="classify one instance")
    _add_common(p)
    _add_oracle_flags(p)
    p.add_argument("--format", default="table",
                   choices=["table", "json", "csv"])
    p.set_defaults(func=cmd_gamma)

    p = subs.add_parser("sweep", help="classify a parameter grid")
    p.add_argument("--family", required=True,
                   choices=[*FAMILIES, "both"])
    p.add_argument("-n", required=True, help="order range a..b")
    p.add_argument("-d", required=True, help="degree range a..b")
    p.add_argument("-k", required=True, help="radius range a..b")
    p.add_argument("--out", help="write output to this file")
    _add_oracle_flags(p)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("verify", help="verify a candidate dominating set")
    _add_common(p)
    p.add_argument("--set", required=True,
                   help="comma separated members, e.g. 0,1,5")
    p.add_argument("--format", default="json", choices=["json", "table"])
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("problems",
                        help="empirical search on the two open conjectures")
    p.add_argument("--problem", default="all",
                   choices=[*PROBLEMS, "all"])
    p.add_argument("-n", default=DEFAULT_PROBLEM_N,
                   help=f"order range (default {DEFAULT_PROBLEM_N})")
    p.add_argument("-d", default=DEFAULT_PROBLEM_D,
                   help=f"degree range (default {DEFAULT_PROBLEM_D})")
    p.add_argument("-k", default=DEFAULT_PROBLEM_K,
                   help=f"radius range (default {DEFAULT_PROBLEM_K})")
    p.add_argument("--out", help="write output to this file")
    _add_oracle_flags(p)
    p.add_argument("--format", default="json", choices=["json", "table"])
    p.set_defaults(func=cmd_problems)

    p = subs.add_parser("export", help="write the arc list of one instance")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("-n", type=int, required=True, help="order")
    p.add_argument("-d", type=int, required=True, help="degree")
    p.add_argument("--format", default="edges", choices=["edges", "dot"])
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage or help
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
