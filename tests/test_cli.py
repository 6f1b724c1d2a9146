"""Command line behaviour: exit codes, formats, determinism, settings."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import dbkdom
from dbkdom import cli, domination, problems
from dbkdom.cli import (CSV_COLUMNS, EXIT_BRACKET, EXIT_INCONCLUSIVE,
                        EXIT_INVALID, EXIT_OK, EXIT_USAGE, main)
from dbkdom.construct import METHODS, ConstructionError, classify
from dbkdom.digraph import (DEBRUIJN, FAMILIES, KAUTZ, GeneralizedDigraph,
                            VertexSet, export_lines)
from dbkdom.oracle import DEFAULT_LIMITS, DEFAULT_TABLE_CEILING, OracleLimits


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict:
    """The environment of a child process that imports the dbkdom under test.

    PYTHONPATH leads first to the directory holding the package imported
    above, as an absolute path, so the child runs this checkout from any
    working directory, even when another dbkdom is installed.
    """
    src = str(Path(dbkdom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_process(*cmd: str) -> subprocess.CompletedProcess:
    """Run cmd in a child process that imports the dbkdom under test."""
    return subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env())


def strip_ms(csv_text: str) -> str:
    # ms is wall clock and exempt from determinism; no other field may
    # contain a comma, so plain rsplit is safe
    return "\n".join(line.rsplit(",", 1)[0]
                     for line in csv_text.splitlines())


class TestGamma:
    def test_headline_table(self):
        code, out, _ = run_cli("gamma", "--family", "debruijn",
                               "-n", "40", "-d", "3", "-k", "3")
        assert code == EXIT_OK
        assert "gamma" in out and " 2\n" in out
        assert "witness" in out and "0;1" in out
        assert "condition congruence" in out and "yes" not in out

    def test_headline_json(self):
        code, out, _ = run_cli("gamma", "--family", "kautz",
                               "-n", "7", "-d", "2", "-k", "2",
                               "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)
        assert row["gamma"] == 2
        # the search refutes size 1; the two-run scan's first size-2 cover
        assert row["witness"] == [5, 6]
        assert row["method"] == "oracle"
        assert row["nodes"] == 1
        assert isinstance(row["ms"], int)

    def test_csv_single_row(self):
        code, out, _ = run_cli("gamma", "--family", "debruijn",
                               "-n", "7", "-d", "2", "-k", "2",
                               "--format", "csv")
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == ",".join(CSV_COLUMNS)
        fields = row.split(",")
        assert fields[:9] == ["debruijn", "7", "2", "2", "1", "2", "1",
                              "congruence", "1"]

    def test_bracket_exit_when_oracle_disabled(self):
        code, out, _ = run_cli("gamma", "--family", "debruijn",
                               "-n", "40", "-d", "3", "-k", "3",
                               "--oracle-budget", "0", "--format", "json")
        assert code == EXIT_BRACKET
        row = json.loads(out)
        assert row["gamma"] is None
        assert row["bracket"] == [1, 2]
        assert row["method"] == "bracket"

    def test_inconclusive_exit_when_budget_exhausted(self):
        # no construction settles 36/3/2 and its search needs two nodes
        code, out, _ = run_cli("gamma", "--family", "debruijn",
                               "-n", "36", "-d", "3", "-k", "2",
                               "--oracle-budget", "1", "--format", "json")
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["method"] == "inconclusive"

    def test_out_file(self, tmp_path):
        target = tmp_path / "row.json"
        code, out, _ = run_cli("gamma", "--family", "debruijn",
                               "-n", "8", "-d", "2", "-k", "1",
                               "--format", "json", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["n"] == 8

    def test_bad_radius_is_usage_error(self):
        code, out, err = run_cli("gamma", "--family", "debruijn",
                                 "-n", "40", "-d", "3", "-k", "0")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("usage: dbkdom gamma ")
        assert err.endswith(
            "\ndbkdom gamma: error: argument -k: must be >= 1, got '0'\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_internal_failure_is_an_error_row(self, monkeypatch, fmt):
        # as in a sweep: exit 1 with the failure in the row, not exit 2
        def failing(*args, **kwargs):
            raise ConstructionError("anchor run failed verification")

        monkeypatch.setattr(cli, "classify", failing)
        code, out, err = run_cli("gamma", "--family", "debruijn",
                                 "-n", "40", "-d", "3", "-k", "3",
                                 "--format", fmt)
        assert code == EXIT_INVALID
        assert err == ""
        message = "ConstructionError: anchor run failed verification"
        if fmt == "json":
            row = json.loads(out)
            assert (row["method"], row["error"]) == ("error", message)
        else:
            assert "method   error\n" in out and message in out

    def test_error_row_has_the_result_keys(self):
        # the CSV writer and the JSON readers take both kinds of row
        row = cli.classify_row("debruijn", 2, 3, 1, DEFAULT_LIMITS)
        result = classify(GeneralizedDigraph(family=DEBRUIJN, n=3, d=3), 1)
        assert row["method"] == "error"
        assert list(row) == [*result.to_dict(), "error", "ms"]

    def test_unwritable_out_file_is_usage_error(self, tmp_path):
        # exit 1 would read as an invalid set or a counterexample
        target = tmp_path / "missing" / "row.txt"
        code, out, err = run_cli("gamma", "--family", "debruijn",
                                 "-n", "40", "-d", "3", "-k", "3",
                                 "--out", str(target))
        assert code == EXIT_USAGE
        assert str(target) in err and out == ""


class TestUsageErrors:
    BAD = [
        ("gamma", "--family", "torus", "-n", "5", "-d", "2", "-k", "1"),
        ("gamma", "--family", "debruijn", "-n", "2..5", "-d", "2", "-k", "1"),
        ("gamma", "--family", "debruijn", "-n", "5", "-d", "1", "-k", "1"),
        ("gamma", "--family", "debruijn", "-n", "2", "-d", "3", "-k", "1"),
        ("gamma", "--family", "debruijn", "-n", "x", "-d", "2", "-k", "1"),
        ("sweep", "--family", "both", "-n", "5..2", "-d", "2", "-k", "1"),
        ("sweep", "--family", "both", "-n", "2..5", "-d", "2", "-k", "1",
         "--jobs", "0"),
        ("verify", "--family", "kautz", "-n", "7", "-d", "2", "-k", "1",
         "--set", "0,seven"),
        ("verify", "--family", "kautz", "-n", "7", "-d", "2", "-k", "1",
         "--set", "0,9"),
        ("problems", "--problem", "nonsense"),
        (),
    ]

    @pytest.mark.parametrize("argv", BAD, ids=lambda a: " ".join(a) or "none")
    def test_exit_two(self, argv):
        code, _, _ = run_cli(*argv)
        assert code == EXIT_USAGE

    OUT_OF_RANGE = [
        (("sweep", "--family", "both", "-n", "5..2", "-d", "2", "-k", "1"),
         "-n", "empty range '5..2'"),
        (("sweep", "--family", "both", "-n", "2..5", "-d", "1..3", "-k", "1"),
         "-d", "must be >= 2, got '1..3'"),
        (("sweep", "--family", "both", "-n", "2..5", "-d", "2", "-k", "1",
          "--jobs", "0"), "--jobs", "must be >= 1, got '0'"),
        (("verify", "--family", "kautz", "-n", "7", "-d", "2", "-k", "-1",
          "--set", "0"), "-k", "must be >= 0, got '-1'"),
        (("export", "--family", "kautz", "-n", "7", "-d", "1"),
         "-d", "must be >= 2, got '1'"),
        (("gamma", "--family", "kautz", "-n", "7", "-d", "2", "-k", "1",
          "--oracle-max-n", "-5"), "--oracle-max-n", "must be >= 0, got '-5'"),
    ]

    @pytest.mark.parametrize("argv, flag, message", OUT_OF_RANGE,
                             ids=[" ".join(a) for a, _, _ in OUT_OF_RANGE])
    def test_out_of_range_flag_is_named(self, argv, flag, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f": error: argument {flag}: {message}\n" in err

    @pytest.mark.parametrize("argv", [
        ("gamma", "--family", "kautz", "-n", "12", "-d", "2", "-k", "1"),
        ("sweep", "--family", "both", "-n", "2..12", "-d", "2", "-k", "1"),
        ("problems", "-n", "2..12", "-d", "2", "-k", "1"),
        ("verify", "--family", "kautz", "-n", "12", "-d", "2", "-k", "1",
         "--set", "0,5"),
    ], ids=lambda a: a[0])
    def test_unwritable_out_fails_before_any_row(self, monkeypatch, tmp_path,
                                                 argv):
        # every classified row would be lost when --out fails at the end
        calls = []

        def counting(function):
            def counted(*args, **kwargs):
                calls.append(args)
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(cli, "classify", counting(classify))
        monkeypatch.setattr(problems, "classify", counting(classify))
        monkeypatch.setattr(cli, "verify", counting(cli.verify))
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(*argv, "--out", str(target))
        assert code == EXIT_USAGE
        assert str(target) in err and out == ""
        assert calls == []

    def test_help_exits_zero(self):
        assert run_cli("--help")[0] == EXIT_OK
        assert run_cli("gamma", "--help")[0] == EXIT_OK


def fake_row(method: str, gamma: int | None = None, **extra) -> dict:
    return {"family": "debruijn", "n": 8, "d": 2, "k": 1, "lower": 3,
            "upper": 4, "gamma": gamma, "method": method, "witness": None,
            "ms": 0, **extra}


class TestWriteRows:
    def test_written_rows_are_dropped(self):
        # a long sweep holds one row at a time, whatever its length
        alive = []

        class Sentinel:
            def __init__(self):
                alive.append(None)

            def __del__(self):
                alive.pop()

        def rows():
            for _ in range(50):
                # write_rows still holds the row it wrote last
                assert len(alive) <= 1
                yield fake_row("congruence", 3, sentinel=Sentinel())

        assert cli.write_rows(io.StringIO(), rows(), "csv") == EXIT_OK
        assert alive == []

    EXACT, BRACKET = fake_row("congruence", 3), fake_row("bracket")
    INCONCLUSIVE, ERROR = fake_row("inconclusive"), fake_row("error")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows, expected", [
        ([], EXIT_OK),
        ([EXACT], EXIT_OK),
        ([EXACT, BRACKET, EXACT], EXIT_BRACKET),
        ([BRACKET, INCONCLUSIVE], EXIT_INCONCLUSIVE),
        ([INCONCLUSIVE, BRACKET, EXACT], EXIT_INCONCLUSIVE),
        ([ERROR, INCONCLUSIVE, BRACKET], EXIT_INVALID),
        ([EXACT, INCONCLUSIVE, BRACKET, ERROR], EXIT_INVALID),
    ], ids=["none", "exact", "bracket", "inconclusive", "inconclusive-first",
            "error-first", "error-last"])
    def test_exit_code_is_the_most_severe_row(self, rows, expected, fmt):
        # error 1 > inconclusive 4 > bracket 3 > exact 0, in any order
        out = io.StringIO()
        assert cli.write_rows(out, iter(rows), fmt) == expected
        assert len(out.getvalue().splitlines()) == (
            len(rows) + (fmt == "csv"))


class TestIndentedJson:
    """gamma, verify and problems print ``json.dumps(obj, indent=2)``
    byte for byte, through the C encoder."""

    def test_a_row_of_every_method(self):
        rows = {}
        for family in sorted(FAMILIES):
            for n in range(2, 61):
                for d in (2, 3, 4):
                    for k in (1, 2, 3):
                        if n >= d:
                            row = cli.classify_row(family, n, d, k,
                                                   OracleLimits(max_nodes=50))
                            rows.setdefault(row["method"], row)
        rows["bracket"] = cli.classify_row("debruijn", 40, 3, 3,
                                           OracleLimits(max_nodes=0))
        # the local search runs only where a budget of 2,000 nodes or more
        # cuts a search
        rows["local_search"] = cli.classify_row(
            "kautz", 145, 3, 2, OracleLimits(max_nodes=20_000))
        rows["error"] = cli.classify_row("debruijn", 2, 3, 1, DEFAULT_LIMITS)
        assert set(rows) == METHODS | {"error"}
        for method, row in rows.items():
            assert row["method"] == method
            assert cli._indented_json(row) == json.dumps(row, indent=2)

    def test_certificates(self):
        g = GeneralizedDigraph.kautz(40, 3)
        for members in ([], [5], [0, 1], list(range(40))):
            cert = domination.verify(
                g, VertexSet.from_members(40, members), 2).to_dict()
            assert cli._indented_json(cert) == json.dumps(cert, indent=2)

    def test_nested_and_empty_values(self):
        for obj in ({}, [], 0, "é", None, {"a": [], "b": {}},
                    [1, [2, [3.5, {}]], {"x": [True, None, "\n"]}]):
            assert cli._indented_json(obj) == json.dumps(obj, indent=2)

    def test_gamma_output(self):
        code, out, _ = run_cli("gamma", "--family", "debruijn", "-n", "100",
                               "-d", "3", "-k", "1", "--format", "json")
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestVerify:
    def test_valid_set(self):
        code, out, _ = run_cli("verify", "--family", "kautz",
                               "-n", "7", "-d", "2", "-k", "2",
                               "--set", "0,1")
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["valid"] is True
        assert cert["uncovered"] == []

    def test_invalid_set_reports_uncovered(self):
        code, out, _ = run_cli("verify", "--family", "debruijn",
                               "-n", "40", "-d", "3", "-k", "3",
                               "--set", "0")
        assert code == EXIT_INVALID
        cert = json.loads(out)
        assert cert["valid"] is False
        assert cert["uncovered"] == list(range(27, 40))

    def test_radius_zero_identity(self):
        everything = ",".join(map(str, range(7)))
        code, out, _ = run_cli("verify", "--family", "kautz",
                               "-n", "7", "-d", "2", "-k", "0",
                               "--set", everything)
        assert code == EXIT_OK
        assert json.loads(out)["valid"] is True

    def test_table_format(self):
        code, out, _ = run_cli("verify", "--family", "kautz",
                               "-n", "7", "-d", "2", "-k", "2",
                               "--set", "0;1", "--format", "table")
        assert code == EXIT_OK
        assert "valid" in out and "yes" in out

    def test_member_out_of_range_opens_no_out(self, tmp_path):
        target = tmp_path / "cert.json"
        code, out, err = run_cli("verify", "--family", "kautz",
                                 "-n", "7", "-d", "2", "-k", "1",
                                 "--set", "0,9", "--out", str(target))
        assert (code, out) == (EXIT_USAGE, "") and err
        assert not target.exists()


class TestSweep:
    ARGS = ("sweep", "--family", "both", "-n", "2..20", "-d", "2..3",
            "-k", "1..2")

    def test_csv_shape_and_order(self):
        code, out, _ = run_cli(*self.ARGS)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        keys = []
        for line in lines[1:]:
            family, n, d, k = line.split(",")[:4]
            assert int(n) >= int(d)  # undefined instances skipped
            keys.append((family, int(n), int(d), int(k)))
        assert keys == sorted(keys)
        expected = 2 * sum(1 for n in range(2, 21) for d in (2, 3)
                           for _ in (1, 2) if n >= d)
        assert len(keys) == expected

    def test_rerun_is_byte_identical_modulo_ms(self):
        first = strip_ms(run_cli(*self.ARGS)[1])
        second = strip_ms(run_cli(*self.ARGS)[1])
        assert first == second

    def test_parallel_rows_match_serial(self):
        serial = strip_ms(run_cli(*self.ARGS, "--jobs", "1")[1])
        parallel = strip_ms(run_cli(*self.ARGS, "--jobs", "2")[1])
        assert serial == parallel

    @pytest.mark.parametrize("cores", [None, 1, 2, 3, 64])
    def test_workers_capped_by_tasks_and_cores(self, monkeypatch, cores):
        # the fake records each worker started and runs it in this process
        started = []

        class FakeProcess:
            def __init__(self, target, args, daemon):
                self.target, self.args = target, args

            def start(self):
                started.append(self)
                handler = signal.getsignal(signal.SIGINT)
                try:
                    self.target(*self.args)
                finally:
                    signal.signal(signal.SIGINT, handler)

            def kill(self):
                pass

            def join(self):
                pass

        four = ("sweep", "--family", "both", "-n", "2..3", "-d", "2",
                "-k", "1")
        one = ("sweep", "--family", "kautz", "-n", "2", "-d", "2", "-k", "1")
        serial = [strip_ms(run_cli(*args)[1]) for args in (four, one)]
        monkeypatch.setattr(multiprocessing.get_context("spawn"), "Process",
                            FakeProcess)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        for args, expected in zip((four, one), serial):
            code, out, _ = run_cli(*args, "--jobs", "1000")
            assert code == EXIT_OK
            assert strip_ms(out) == expected
        workers = min(4, cores or 1)
        assert len(started) == (workers if workers > 1 else 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_is_streamed(self, jobs):
        # a grid of about 10**13 rows could never be listed first
        args = cli.build_parser().parse_args(
            ["sweep", "--family", "both", "-n", "2..999999999999",
             "-d", "2..5", "-k", "1..4"])
        assert args.n == range(2, 10 ** 12)
        rows = cli.sweep_rows(FAMILIES, args.n, args.d, args.k,
                              DEFAULT_LIMITS, jobs)
        first = next(rows)
        rows.close()
        assert [first[key] for key in ("family", "n", "d", "k")] == [
            DEBRUIJN, 2, 2, 1]

    def test_killed_worker_is_an_error(self, monkeypatch):
        # a worker killed mid-send leaves half a row in its pipe; reading
        # on must end in an error, neither a hang nor a short output
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = cli.sweep_rows(FAMILIES, range(2, 10 ** 12), range(2, 6),
                              range(1, 5), DEFAULT_LIMITS, jobs=2)
        next(rows)
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        workers[0].kill()
        with pytest.raises(RuntimeError, match="exited before sending"):
            for _ in rows:
                pass
        assert multiprocessing.active_children() == []

    def test_import_leaves_process_pool_unloaded(self):
        # only a sweep with workers loads multiprocessing
        proc = run_process(sys.executable, "-c",
                           "import sys, dbkdom.cli; print("
                           "'multiprocessing' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_interrupted_sweep_keeps_finished_rows(self, monkeypatch,
                                                   tmp_path):
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(args)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return classify(*args, **kwargs)

        monkeypatch.setattr(cli, "classify", interrupted)
        target = tmp_path / "rows.csv"
        with pytest.raises(KeyboardInterrupt):
            main([*self.ARGS, "--out", str(target)])
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert [line.split(",")[:4] for line in lines[1:]] == [
            ["debruijn", "2", "2", "1"], ["debruijn", "2", "2", "2"],
            ["debruijn", "3", "2", "1"]]

    def test_sigint_stops_parallel_sweep(self, tmp_path):
        # Ctrl-C reaches the whole process group: the main process stops
        # and kills the workers, and the rows already written stay
        target = tmp_path / "rows.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "dbkdom.cli", "sweep", "--family", "both",
             "-n", "2..200", "-d", "2..5", "-k", "1..4", "--jobs", "2",
             "--out", str(target)],
            env=child_env(), start_new_session=True,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while (not target.exists()
                   or len(target.read_text().splitlines()) < 2):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        text = target.read_text()
        lines = text.splitlines()
        assert text.endswith("\n") and lines[0] == ",".join(CSV_COLUMNS)
        assert all(len(line.split(",")) == len(CSV_COLUMNS)
                   for line in lines[1:])

    def test_sigint_to_starting_workers_is_ignored(self, tmp_path):
        # Ctrl-C is the main process's to act on: a worker that gets it
        # while still starting up must neither die nor print a traceback.
        # Each worker records its pid and sleeps in sitecustomize, before
        # any dbkdom code runs, and gets SIGINT alone during that sleep;
        # the main process sees two cores, so it starts two workers.
        pids = tmp_path / "pids"
        pids.mkdir()
        (tmp_path / "sitecustomize.py").write_text(
            "import os, sys, time\n"
            "if '--multiprocessing-fork' not in sys.orig_argv:\n"
            "    os.cpu_count = lambda: 2\n"
            "else:\n"
            f"    open(os.path.join({str(pids)!r}, str(os.getpid())),"
            " 'w').close()\n"
            "    time.sleep(2)\n")
        env = child_env()
        env["PYTHONPATH"] = os.pathsep.join((str(tmp_path),
                                             env["PYTHONPATH"]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dbkdom.cli", "sweep", "--family", "both",
             "-n", "2..30", "-d", "2..3", "-k", "1..2", "--jobs", "2",
             "--format", "json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 30
            while len(list(pids.iterdir())) < 2:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.02)
            for pid in pids.iterdir():
                os.kill(int(pid.name), signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, err) == (EXIT_OK, b"")
        assert len(out.splitlines()) == 228

    def test_sigint_during_the_starts_is_held_not_lost(self, monkeypatch):
        # SIGINT is ignored while the workers start, so that they inherit
        # that, and blocked, so a Ctrl-C then arrives once they are started
        started = []

        class FakeProcess:
            def __init__(self, target, args, daemon):
                pass

            def start(self):
                started.append(self)
                os.kill(os.getpid(), signal.SIGINT)

            def kill(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing.get_context("spawn"), "Process",
                            FakeProcess)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = cli.sweep_rows(FAMILIES, range(2, 8), [2], [1],
                              DEFAULT_LIMITS, jobs=2)
        with pytest.raises(KeyboardInterrupt):
            next(rows)
        assert len(started) == 2

    def test_parallel_sweep_off_the_main_thread(self):
        # only the main thread may set a signal handler, so the workers
        # start without the SIGINT guard there and the rows still match
        serial = list(cli.sweep_rows(FAMILIES, range(2, 8), [2], [1],
                                     DEFAULT_LIMITS))
        rows = []
        thread = threading.Thread(target=lambda: rows.extend(cli.sweep_rows(
            FAMILIES, range(2, 8), [2], [1], DEFAULT_LIMITS, jobs=2)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        for row in serial + rows:
            del row["ms"]
        assert rows == serial

    def test_closed_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "dbkdom.cli", "sweep", "--family", "both",
             "-n", "2..60", "-d", "2..5", "-k", "1..4"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # the rows outgrow the pipe buffer, so the sweep writes after this
        proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_INVALID, b"")

    def test_closed_pipe_stops_parallel_sweep(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "dbkdom.cli", "sweep", "--family", "both",
             "-n", "2..200", "-d", "2..5", "-k", "1..4", "--jobs", "2"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            proc.stdout.readline()
            proc.stdout.close()
            # the workers share stderr, so it ends when they are gone too
            _, err = proc.communicate(timeout=30)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, err) == (EXIT_INVALID, b"")

    def test_workers_exit_when_the_main_process_dies(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "dbkdom.cli", "sweep", "--family", "both",
             "-n", "2..200", "-d", "2..5", "-k", "1..4", "--jobs", "2",
             "--oracle-budget", "20000"],
            env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.stdout.readline()
            proc.stdout.readline()
            proc.kill()
            proc.wait()
            # each worker holds stdout open until it exits
            fd, deadline = proc.stdout.fileno(), time.monotonic() + 30
            while True:
                ready, _, _ = select.select(
                    [fd], [], [], max(0.0, deadline - time.monotonic()))
                assert ready, "a worker outlived the main process"
                if not os.read(fd, 1 << 16):
                    break
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.close()

    def test_json_lines(self):
        code, out, _ = run_cli("sweep", "--family", "kautz",
                               "-n", "3..9", "-d", "2", "-k", "1",
                               "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in rows] == list(range(3, 10))
        assert all(r["gamma"] == -(-r["n"] // 3) for r in rows)
        assert all(r["method"] == "radius_one" for r in rows)

    def test_single_value_ranges(self):
        code, out, _ = run_cli("sweep", "--family", "debruijn",
                               "-n", "40", "-d", "3", "-k", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2

    def test_budget_zero_brackets_exit_three(self):
        code, out, _ = run_cli("sweep", "--family", "debruijn",
                               "-n", "38..42", "-d", "3", "-k", "3",
                               "--oracle-budget", "0")
        assert code == EXIT_BRACKET
        gammas = [line.split(",")[6] for line in out.splitlines()[1:]]
        assert "" in gammas  # at least one undecided row


class TestConfig:
    """Settings are flags only; argparse owns their defaults, types and
    ranges."""

    def test_problems_default_envelope(self):
        # sweep requires explicit ranges; problems falls back to defaults,
        # whose envelope holds Kautz counterexamples
        code, out, _ = run_cli("problems", "--problem", "kautz-upper",
                               "--format", "json")
        assert code == EXIT_INVALID
        envelope = json.loads(out)["envelope"]
        assert envelope["n"] == list(range(2, 61))
        assert envelope["d"] == list(range(2, 6))
        assert envelope["k"] == list(range(1, 5))

    def test_oracle_max_n_above_table_ceiling_rejected(self):
        # the coverage table refuses larger orders, so such a limit would
        # only turn rows into errors
        argv = ("sweep", "--family", "kautz", "-n", "5001", "-d", "2",
                "-k", "2", "--oracle-max-n")
        code, out, err = run_cli(*argv, str(DEFAULT_TABLE_CEILING + 1))
        assert code == EXIT_USAGE
        assert str(DEFAULT_TABLE_CEILING) in err and out == ""
        code, _, _ = run_cli(*argv, str(DEFAULT_TABLE_CEILING))
        assert code == EXIT_BRACKET

    @pytest.mark.parametrize("key", ["oracle_budget", "oracle_max_n"])
    def test_negative_limits_rejected(self, key):
        # a negative budget used to switch the oracle off without a word
        argv = ("gamma", "--family", "kautz", "-n", "31", "-d", "2", "-k", "2")
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(*argv, flag, "-5")
        assert code == EXIT_USAGE and out == ""
        assert f": error: argument {flag}: must be >= 0, got '-5'\n" in err


class TestProblems:
    def test_counterexamples_found_in_small_envelope(self):
        code, out, _ = run_cli("problems", "--problem",
                               "debruijn-necessity",
                               "-n", "2..12", "-d", "2..3", "-k", "2",
                               "--format", "json")
        assert code == EXIT_INVALID
        report = json.loads(out)
        assert report["counts"]["counterexample"] >= 1
        hits = [r for r in report["rows"]
                if r["verdict"] == "counterexample"]
        assert any((r["n"], r["d"]) == (10, 3) for r in hits)
        for r in hits:
            assert r["condition"] is False
            assert r["certificate"]["valid"] is True
            assert len(r["certificate"]["set"]) == r["lower"]

    def test_radius_one_slice_all_consistent(self):
        code, out, _ = run_cli("problems", "--problem", "all",
                               "-n", "2..30", "-d", "2..3", "-k", "1",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        for report in payload["reports"]:
            assert report["counts"]["counterexample"] == 0
            assert report["counts"]["inconclusive"] == 0

    def test_budget_zero_is_inconclusive_not_consistent(self):
        code, out, _ = run_cli("problems", "--problem", "kautz-upper",
                               "-n", "2..12", "-d", "2", "-k", "2",
                               "--oracle-budget", "0", "--format", "json")
        assert code == EXIT_INCONCLUSIVE
        report = json.loads(out)
        assert report["counts"]["counterexample"] == 0
        assert report["counts"]["inconclusive"] >= 1

    @pytest.mark.parametrize("report, family, ns, ds, ks", [
        (problems.debruijn_necessity_report, DEBRUIJN,
         list(range(2, 13)), [2, 3], [2]),
        (problems.kautz_upper_report, KAUTZ, [31], [2], [2]),
    ], ids=problems.PROBLEMS)
    def test_counterexamples_not_verified_again(self, monkeypatch, report,
                                                family, ns, ds, ks):
        # verify expands one ball per call through this module global, so
        # counting ball calls counts verify calls from every caller
        calls = []
        original = domination.ball

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(domination, "ball", counting)
        payload = report(ns, ds, ks)
        in_report = len(calls)
        calls.clear()
        for n in ns:
            for d in ds:
                for k in ks:
                    if n >= d:
                        classify(GeneralizedDigraph(family, n, d), k)
        assert payload["counts"]["counterexample"] >= 1
        assert in_report == len(calls)

    def test_table_format_lists_counterexamples(self):
        code, out, _ = run_cli("problems", "--problem", "kautz-upper",
                               "-n", "31", "-d", "2", "-k", "2",
                               "--format", "table")
        assert code == EXIT_INVALID
        assert "counterexample=1" in out.replace(" ", "")
        assert "set=" in out


class TestExport:
    def test_edge_list_golden(self):
        code, out, _ = run_cli("export", "--family", "debruijn",
                               "-n", "6", "-d", "3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# debruijn 6 3"
        assert lines[1:4] == ["0\t0", "0\t1", "0\t2"]
        assert len(lines) == 19

    def test_dot_output(self):
        code, out, _ = run_cli("export", "--family", "kautz",
                               "-n", "9", "-d", "2", "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph kautz_9_2 {")
        assert out.rstrip().endswith("}")
        assert out.count("->") == 18

    def test_size_guard_exits_usage(self):
        code, _, err = run_cli("export", "--family", "debruijn",
                               "-n", "6000000", "-d", "2")
        assert code == EXIT_USAGE
        assert err

    @pytest.mark.parametrize("argv", [
        ("-n", "6000000", "-d", "2"),
        ("-n", "1", "-d", "2"),
    ], ids=["guard", "order"])
    def test_refused_before_out_is_opened(self, tmp_path, argv):
        target = tmp_path / "arcs.txt"
        code, _, err = run_cli("export", "--family", "kautz", *argv,
                               "--out", str(target))
        assert code == EXIT_USAGE and err
        assert not target.exists()

    def test_out_file_matches_export_graph(self, tmp_path):
        target = tmp_path / "arcs.dot"
        code, out, _ = run_cli("export", "--family", "kautz", "-n", "50",
                               "-d", "3", "--format", "dot",
                               "--out", str(target))
        assert (code, out) == (EXIT_OK, "")
        assert target.read_text() == "".join(export_lines(
            GeneralizedDigraph.kautz(50, 3), "dot"))


class TestOutputPins:
    """Digests of the default-envelope outputs, equal on both kernels; a
    change that alters a row updates them and says why."""

    def test_default_sweep_rows(self):
        code, out, _ = run_cli("sweep", "--family", "both", "-n", "2..60",
                               "-d", "2..5", "-k", "1..4", "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            del row["ms"]
        text = "".join(json.dumps(row) + "\n" for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "736772ddd5cbcc5d1fa39207125cca67bf3839fcf16f9fa35b463fe1fe4044c7")

    def test_default_sweep_csv(self):
        # the same rows as CSV cells, header included, less the last
        # column, ms
        code, out, _ = run_cli("sweep", "--family", "both", "-n", "2..60",
                               "-d", "2..5", "-k", "1..4", "--format", "csv")
        assert code == EXIT_OK and CSV_COLUMNS[-1] == "ms"
        text = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in out.splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e0c37db6292554d53b77c01e1c97f4afeae2790d0b85323026f7947e72b1ff3f")

    def test_problems_json(self):
        code, out, _ = run_cli("problems", "--format", "json")
        assert code == EXIT_INVALID  # both reports hold counterexamples
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "05f577893cb991c43a3cbe633456f61c294829412d6ad1d62fd243190cf567a2")

    def test_problems_json_without_search(self):
        # the default pin has no inconclusive row; here 35 de Bruijn and 91
        # Kautz rows are, and no search runs, so both kernels give it
        code, out, _ = run_cli("problems", "--format", "json",
                               "--oracle-budget", "0")
        assert code == EXIT_INVALID
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3641c5db4351055630c5fcc9dc3a75bcb5ba811f030a66592826379d7eee0491")


# The console script pip writes for a [project.scripts] entry
# "name = module:func" (distlib's launcher template).
LAUNCHER = """\
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        # builds the launcher an install would, from the declaration in
        # pyproject.toml, so the test needs no install
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["dbkdom"]
        assert entry == "dbkdom.cli:main"
        module, func = entry.split(":")
        script = tmp_path / "dbkdom"
        script.write_text(LAUNCHER.format(module=module, func=func))

        proc = run_process(sys.executable, str(script), "gamma",
                           "--family", "kautz", "-n", "7", "-d", "2",
                           "-k", "2", "--format", "json")
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["gamma"] == 2
        # a nonzero code must reach the shell too, not only EXIT_OK
        proc = run_process(sys.executable, str(script), "gamma",
                           "--family", "debruijn", "-n", "40", "-d", "3",
                           "-k", "3", "--oracle-budget", "0")
        assert proc.returncode == EXIT_BRACKET

    def test_module_invocation(self):
        proc = run_process(
            sys.executable, "-m", "dbkdom.cli", "verify", "--family",
            "debruijn", "-n", "40", "-d", "3", "-k", "3", "--set", "0,1")
        assert proc.returncode == EXIT_OK
