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
from collections.abc import Sequence
from itertools import islice

from .construct import classify
from .digraph import FAMILIES, GeneralizedDigraph, VertexSet, export_lines
from .domination import verify
from .oracle import DEFAULT_LIMITS, OracleLimits
from .problems import (CONSISTENT, COUNTEREXAMPLE, INCONCLUSIVE_VERDICT,
                       PROBLEMS, instances, report)
# unused here; perfbench calls or wraps these names on this module
from .oracle import coverage_table, exists_dominating_of_size  # noqa: F401
from .problems import (debruijn_necessity_report,  # noqa: F401
                       kautz_upper_report)

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


def _integer(least: int, ranged: bool = False):
    """The argparse type of a numeric flag: an integer no smaller than
    ``least``; a ranged flag also takes an inclusive range 'a..b' and
    gives the ``range`` of its values ('7' gives range(7, 8))."""
    def parse(text: str):
        text = text.strip()
        ends = text.split("..", 1) if ranged else [text]
        try:
            a, b = int(ends[0]), int(ends[-1])
        except ValueError:
            shape = "an integer or a..b range" if ranged else "an integer"
            raise argparse.ArgumentTypeError(
                f"expected {shape}, got {text!r}") from None
        if a > b:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        if a < least:
            raise argparse.ArgumentTypeError(
                f"must be >= {least}, got {text!r}")
        return range(a, b + 1) if ranged else a
    return parse


def _members(text: str) -> list[int]:
    """The argparse type of --set: comma or semicolon separated vertices."""
    tokens = [t for t in text.replace(";", ",").split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("no members")
    return [_integer(0)(token) for token in tokens]


def _open_out(path: str | None):
    """Stdout, or the --out file opened for writing.  Every command opens
    it before its work, so an unwritable path fails before any is done."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise ValueError(
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
    limits = OracleLimits(args.oracle_budget, args.oracle_max_n)
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


def _sweep_worker(conn, grid, limits: OracleLimits, index: int,
                  workers: int) -> None:
    """Send down ``conn`` the row of every ``workers``-th instance of
    ``grid`` from the ``index``-th on."""
    with contextlib.suppress(BrokenPipeError):  # the reader is gone
        for inst in islice(instances(*grid), index, None, workers):
            conn.send(classify_row(*inst, limits))


def sweep_rows(families: tuple[str, ...], ns: Sequence[int],
               ds: Sequence[int], ks: Sequence[int], limits: OracleLimits,
               jobs: int = 1):
    """The rows of the grid's ``instances``, yielded in output order as
    they finish; the grid is streamed, never listed."""
    grid = (families, ns, ds, ks)
    workers = min(jobs, os.cpu_count() or 1,
                  sum(1 for _ in islice(instances(*grid), jobs)))
    if workers < 2:
        for inst in instances(*grid):
            yield classify_row(*inst, limits)
        return
    # imported here: multiprocessing would add a third to the import time
    # of every process start.  Spawned workers share no state with this one.
    import multiprocessing
    import signal
    import threading
    context = multiprocessing.get_context("spawn")
    readers, procs = [], []
    # a worker inherits an ignored SIGINT, so Ctrl-C stops only this
    # process, which kills the workers below; blocked meanwhile, a Ctrl-C
    # during the starts stays pending until the handler is back.  Only the
    # main thread may set a handler; from another, workers start as is.
    main = threading.current_thread() is threading.main_thread()
    if main:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        handler = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        try:
            for index in range(workers):
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(
                    target=_sweep_worker, daemon=True,
                    args=(writer, grid, limits, index, workers))
                proc.start()
                procs.append(proc)
                readers.append(reader)
                # the worker holds the only write end, so its death reads
                # as EOF here and never as a message that does not come
                writer.close()
        finally:
            if main:
                signal.signal(signal.SIGINT, handler)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # worker i has row j exactly when j % workers == i
        for j, _ in enumerate(instances(*grid)):
            try:
                yield readers[j % workers].recv()
            except EOFError:
                raise RuntimeError(f"sweep worker {j % workers} exited "
                                   f"before sending row {j}") from None
    finally:
        for proc in procs:
            proc.kill()
            proc.join()


def cmd_sweep(args) -> int:
    limits = OracleLimits(args.oracle_budget, args.oracle_max_n)
    families = FAMILIES if args.family == "both" else (args.family,)
    with _open_out(args.out) as fh:
        return write_rows(fh, sweep_rows(families, args.n, args.d, args.k,
                                         limits, args.jobs),
                          args.format)


def cmd_verify(args) -> int:
    g = GeneralizedDigraph(family=args.family, n=args.n, d=args.d)
    # refuses a member >= n before --out is opened
    dset = VertexSet.from_members(args.n, args.set)
    with _open_out(args.out) as fh:
        cert = verify(g, dset, args.k).to_dict()
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
    limits = OracleLimits(args.oracle_budget, args.oracle_max_n)
    selected = PROBLEMS if args.problem == "all" else (args.problem,)
    with _open_out(args.out) as fh:
        reports = [report(tag, args.n, args.d, args.k, limits)
                   for tag in selected]
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


def _add_common(sub, least_k: int = 1):
    sub.add_argument("--family", required=True, choices=list(FAMILIES))
    sub.add_argument("-n", type=_integer(1), required=True, help="order")
    sub.add_argument("-d", type=_integer(2), required=True, help="degree")
    sub.add_argument("-k", type=_integer(least_k), required=True,
                     help="radius")
    sub.add_argument("--out", help="write output to this file")


def _add_oracle_flags(sub):
    sub.add_argument("--oracle-budget", type=_integer(0),
                     help="search node budget (0 disables the oracle)")
    sub.add_argument("--oracle-max-n", type=_integer(0),
                     default=DEFAULT_LIMITS.max_n,
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
    p.add_argument("-n", type=_integer(1, ranged=True), required=True,
                   help="order range a..b")
    p.add_argument("-d", type=_integer(2, ranged=True), required=True,
                   help="degree range a..b")
    p.add_argument("-k", type=_integer(1, ranged=True), required=True,
                   help="radius range a..b")
    p.add_argument("--out", help="write output to this file")
    _add_oracle_flags(p)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--jobs", type=_integer(1), default=1,
                   help="parallel workers (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("verify", help="verify a candidate dominating set")
    # radius 0: the set must hold every vertex
    _add_common(p, least_k=0)
    p.add_argument("--set", type=_members, required=True,
                   help="comma separated members, e.g. 0,1,5")
    p.add_argument("--format", default="json", choices=["json", "table"])
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("problems",
                        help="empirical search on the two open conjectures")
    p.add_argument("--problem", default="all",
                   choices=[*PROBLEMS, "all"])
    # argparse parses a string default with the flag's type
    p.add_argument("-n", type=_integer(1, ranged=True),
                   default=DEFAULT_PROBLEM_N,
                   help=f"order range (default {DEFAULT_PROBLEM_N})")
    p.add_argument("-d", type=_integer(2, ranged=True),
                   default=DEFAULT_PROBLEM_D,
                   help=f"degree range (default {DEFAULT_PROBLEM_D})")
    p.add_argument("-k", type=_integer(1, ranged=True),
                   default=DEFAULT_PROBLEM_K,
                   help=f"radius range (default {DEFAULT_PROBLEM_K})")
    p.add_argument("--out", help="write output to this file")
    _add_oracle_flags(p)
    p.add_argument("--format", default="json", choices=["json", "table"])
    p.set_defaults(func=cmd_problems)

    p = subs.add_parser("export", help="write the arc list of one instance")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("-n", type=_integer(1), required=True, help="order")
    p.add_argument("-d", type=_integer(2), required=True, help="degree")
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
