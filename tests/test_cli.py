import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from goldencalc import cli, fibonacci
from goldencalc.bernoulli import bf_eval
from goldencalc.rationals import format_rational, latex_rational
from goldencalc.verify import Counterexample, VerificationReport

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture name -> CLI argv; scripts/regen_fixtures.py reads the same file
GOLDEN_INVOCATIONS = json.loads((Path(__file__).parent / "golden_invocations.json").read_text())


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "goldencalc", *args],
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("fixture", sorted(GOLDEN_INVOCATIONS))
def test_golden_files_byte_identical(fixture):
    expected = (GOLDEN_DIR / fixture).read_bytes()
    result = run_cli(*GOLDEN_INVOCATIONS[fixture])
    assert result.returncode == 0
    assert result.stdout == expected


def _with_out(argv, target):
    """argv with "--out target" placed before any "--" (after it, it would be an operand)."""
    argv = list(argv)
    at = argv.index("--") if "--" in argv else len(argv)
    return argv[:at] + ["--out", str(target)] + argv[at:]


STREAMED_INVOCATIONS = sorted(GOLDEN_INVOCATIONS.values()) + [
    [command, "256", "--format", fmt]
    for command in ("fibonomial", "binomial")
    for fmt in ("json", "csv", "latex", "plain")
]


@pytest.mark.parametrize("argv", STREAMED_INVOCATIONS, ids=" ".join)
def test_streamed_output_is_the_rendered_document(argv, tmp_path):
    # what main writes chunk by chunk equals the document rendered whole
    target = tmp_path / "out"
    assert cli.main(_with_out(argv, target)) == 0
    args = cli.build_parser().parse_args(argv)
    rendered = cli.build_document(args).render(args.format) + "\n"
    assert target.read_bytes() == rendered.encode("utf-8")


def test_no_command_takes_a_factorial_ratio(monkeypatch, tmp_path):
    # every Fibonomial comes from the Pascal rule; verify checks rows by the ratio rule
    def forbidden(*args):
        raise AssertionError("a factorial-ratio Fibonomial was taken")

    monkeypatch.setattr(fibonacci.FibTable, "fibonomial", forbidden)
    _assert_fixtures_in_process(tmp_path)


def _assert_fixtures_in_process(tmp_path):
    """Every fixture invocation through cli.main exits 0 and writes the fixture's bytes."""
    for fixture, argv in sorted(GOLDEN_INVOCATIONS.items()):
        target = tmp_path / fixture
        assert cli.main(_with_out(argv, target)) == 0, fixture
        assert target.read_bytes() == (GOLDEN_DIR / fixture).read_bytes(), fixture


def test_every_golden_file_has_an_invocation():
    assert {path.name for path in GOLDEN_DIR.iterdir()} == set(GOLDEN_INVOCATIONS)


def test_out_flag_writes_stdout_bytes(tmp_path):
    target = tmp_path / "doc.json"
    written = run_cli("numbers", "fib", "3", "--out", str(target))
    assert written.returncode == 0
    assert written.stdout == b""
    streamed = run_cli("numbers", "fib", "3")
    assert target.read_bytes() == streamed.stdout


@pytest.mark.parametrize("fmt", ["json", "csv", "latex", "plain"])
@pytest.mark.parametrize(
    "args",
    [
        ["numbers", "fib", "4"],
        ["numbers", "classical", "4"],
        ["numbers", "fib", "4", "--method", "both"],
        ["poly", "fib", "3"],
        ["poly", "classical", "3"],
        ["eval", "fib", "4", "1/2"],
        ["fibonomial", "5"],
        ["binomial", "4"],
    ],
)
def test_every_command_renders_every_format(args, fmt, capsys):
    assert cli.main([*args, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out.strip()


def test_numbers_row_six(capsys):
    assert cli.main(["numbers", "fib", "6", "--format", "plain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("101/39")


def test_numbers_classical(capsys):
    assert cli.main(["numbers", "classical", "6", "--format", "plain"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("1/42")


def test_numbers_classical_192_both_routes_match(capsys):
    assert cli.main(["numbers", "classical", "192", "--method", "both"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert [row["n"] for row in payload] == list(range(193))
    assert all(row["match"] is True for row in payload)


def test_numbers_classical_both_compares_two_routes(monkeypatch, capsys):
    # A broken series route must show up as a mismatch, not be compared with itself.
    monkeypatch.setattr(cli, "classical_bernoulli_numbers", lambda n: [0] * (n + 1))
    assert cli.main(["numbers", "classical", "6", "--method", "both", "--format", "plain"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "b_6: series=0 recursive=1/42 match=NO"
    assert cli.main(["numbers", "classical", "6", "--method", "recursive", "--format", "plain"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("1/42")


def test_eval_published_values(capsys):
    assert cli.main(["eval", "fib", "6", "1", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "B_6^F(1) = 101/39"
    assert cli.main(["eval", "fib", "3", "0", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "B_3^F(0) = -1/3"
    assert cli.main(["eval", "fib", "4", "1/2", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "B_4^F(1/2) = 19/80"


def test_eval_negative_point_after_double_dash(capsys):
    # "-3/7" alone would be read as an option; after "--" it is the point
    assert cli.main(["eval", "fib", "4", "--", "-3/7"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["payload"]["value"] == format_rational(bf_eval(4, Fraction(-3, 7)))


def test_eval_at_a_point_past_the_int_str_limit(capsys):
    digits = "7" * 5000
    assert cli.main(["eval", "fib", "4", "--", f"{digits}/3"]) == 0
    document = json.loads(capsys.readouterr().out)
    point = Fraction(int(Decimal(digits)), 3)
    assert document["payload"]["value"] == format_rational(bf_eval(4, point))


def test_binomial_rendering(capsys):
    assert cli.main(["binomial", "2", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "(x+y)_F^2 = x^2 + xy - y^2"
    assert cli.main(["binomial", "0", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "(x+y)_F^0 = 1"


def test_fibonomial_document_builds_one_table(monkeypatch):
    # one Pascal pass over one FibTable, never a factorial ratio per entry
    expected = [[str(v) for v in fibonacci.fibonomial_row(n)] for n in range(121)]
    built = []
    original = fibonacci.FibTable.__init__

    def counting(self, limit):
        built.append(limit)
        original(self, limit)

    def refuse(self, n, k):
        raise AssertionError("factorial-ratio Fibonomial called from the triangle builder")

    monkeypatch.setattr(fibonacci.FibTable, "__init__", counting)
    monkeypatch.setattr(fibonacci.FibTable, "fibonomial", refuse)
    rows = list(cli.build_fibonomial_document(120).payload)
    assert len(built) <= 1
    assert rows[7] == {"n": 7, "row": ["1", "13", "104", "260", "260", "104", "13", "1"]}
    # both parities of the middle entry, and every mirrored digit string
    assert [row["row"] for row in rows] == expected
    for n, row in enumerate(rows):
        assert all(row["row"][k] is row["row"][n - k] for k in range(n + 1))


def test_verify_small_bound_passes(capsys):
    assert cli.main(["verify", "3", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert "all identities passed" in out


# the benchmark's pinned sha256 of each command's stdout, read only
BENCHMARK_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "manifest.json").read_text()
)


@pytest.mark.parametrize("bound", ["32", "64"])
def test_verify_output_matches_the_benchmark_digest(bound, monkeypatch, tmp_path):
    forks = _counted_forks(monkeypatch)
    target = tmp_path / "out"
    assert cli.main(["verify", bound, "--out", str(target)]) == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == BENCHMARK_DIGESTS[f"verify {bound}"]
    # order 2N = 64 stays in one process; 128 runs the core layer in one worker
    assert len(forks) == {"32": 0, "64": 1}[bound]
    _assert_no_child_left()


def test_verify_json_document(capsys):
    assert cli.main(["verify", "3"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["kind"] == "verification"
    assert document["metadata"]["all_passed"] is True


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli.main(["verify", "1"]) == 2
        assert cli.main(["numbers", "fib", "-3"]) == 2
        assert cli.main(["numbers", "golden", "3"]) == 2
        assert cli.main(["eval", "fib", "3", "pi"]) == 2
        assert cli.main(["nonsense"]) == 2
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_verification_failure_is_1(self, monkeypatch, capsys):
        failing = VerificationReport(
            identity="synthetic-broken",
            degree_min=2,
            degree_max=3,
            statuses=(True, False),
            counterexample=Counterexample(3, "1/2", "1/3"),
        )
        monkeypatch.setattr(cli, "verify_identities", lambda n: [failing])
        monkeypatch.setattr(cli, "core_property_reports", lambda n: [])
        assert cli.main(["verify", "3", "--format", "plain"]) == 1
        out = capsys.readouterr().out
        assert "FAIL synthetic-broken" in out
        assert "counterexample at 3: 1/2 != 1/3" in out

    def test_internal_error_is_3(self, monkeypatch, capsys):
        def broken(max_n):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_fibonomial_document", broken)
        assert cli.main(["fibonomial", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "goldencalc: internal error: RuntimeError: boom\n"

    def test_out_into_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "numbers.json"
        assert cli.main(["numbers", "fib", "3", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"goldencalc: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_success_is_0(self, capsys):
        assert cli.main(["fibonomial", "0", "--format", "plain"]) == 0
        capsys.readouterr()

    # each subcommand's words before its size, the size's name, its least
    # value, the message for one below it, and the kind of its document
    SIZED_COMMANDS = [
        (["numbers", "fib"], "N", 0, "must be nonnegative", "numbers"),
        (["poly", "fib"], "n", 0, "must be nonnegative", "polynomials"),
        (["eval", "fib"], "n", 0, "must be nonnegative", "evaluation"),
        (["fibonomial"], "N", 0, "must be nonnegative", "fibonomials"),
        (["binomial"], "n", 0, "must be nonnegative", "binomial"),
        (["verify"], "N", 3, "verification bound must be at least 3", "verification"),
    ]

    @pytest.mark.parametrize(
        "head, name, least, message, kind", SIZED_COMMANDS, ids=[c[0][0] for c in SIZED_COMMANDS]
    )
    def test_each_subcommand_checks_its_size(self, head, name, least, message, kind, capsys):
        point = ["1"] if head[0] == "eval" else []
        prefix = f"goldencalc {head[0]}: error: argument {name}: "
        # a size is ASCII digits with an optional sign, as a rational's numerator:
        # int() would also take "1_0" and Arabic-Indic digits
        rejected = [
            ("1.5", "not an integer: '1.5'"),
            ("1_0", "not an integer: '1_0'"),
            ("١٢", "not an integer: '١٢'"),
            (str(least - 1), message),
        ]
        for size, last_line in rejected:
            assert cli.main([*head, size, *point]) == 2
            assert capsys.readouterr().err.splitlines()[-1] == prefix + last_line
        # the least size, whitespace around it, reaches the subcommand's own document builder
        assert cli.main([*head, f" {least} ", *point]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == kind


def _counted_forks(monkeypatch):
    """The pids that ``os.fork`` returns to this process from now on."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorker:
    """From FORK_MIN_ORDER on, one half of `verify` and of `numbers --method both`
    runs in a forked worker; its failures reach main as internal errors."""

    # a command above the threshold, and the name of its worker half in cli
    FORKING = [
        (["verify", "48"], "core_property_reports"),
        (["numbers", "fib", "96", "--method", "both"], "bf_numbers_series"),
    ]

    @pytest.mark.parametrize("argv, worker_half", FORKING, ids=["verify", "numbers"])
    def test_worker_exception_is_raised_again(self, argv, worker_half, monkeypatch, capsys):
        def broken(n):
            raise ValueError("boom")

        forks = _counted_forks(monkeypatch)
        monkeypatch.setattr(cli, worker_half, broken)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "goldencalc: internal error: ValueError: boom\n"
        assert len(forks) == 1
        _assert_no_child_left()

    def test_a_worker_that_dies_is_one_line_and_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "core_property_reports", lambda n: os.kill(os.getpid(), signal.SIGKILL)
        )
        assert cli.main(["verify", "48"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "goldencalc: internal error: RuntimeError: "
            "the worker process died without a result (signal 9)\n"
        )
        _assert_no_child_left()

    def test_an_error_in_this_process_kills_the_worker(self, monkeypatch, capsys):
        def broken(n):
            raise ValueError("boom")

        killed = []
        kill = os.kill

        def recorded(pid, sig):
            killed.append((pid, sig))
            kill(pid, sig)

        forks = _counted_forks(monkeypatch)
        monkeypatch.setattr(os, "kill", recorded)
        monkeypatch.setattr(cli, "core_property_reports", lambda n: time.sleep(60))
        monkeypatch.setattr(cli, "verify_identities", broken)
        start = time.perf_counter()
        assert cli.main(["verify", "48"]) == 3
        assert time.perf_counter() - start < 30
        assert capsys.readouterr().err == "goldencalc: internal error: ValueError: boom\n"
        assert killed == [(forks[0], signal.SIGKILL)]
        _assert_no_child_left()

    def test_a_failed_fork_runs_the_halves_in_sequence(self, monkeypatch, tmp_path):
        def unavailable():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", unavailable)
        monkeypatch.setattr(cli, "FORK_MIN_ORDER", 0)
        fixture = "numbers_fib_5_both.csv"
        target = tmp_path / fixture
        assert cli.main(_with_out(GOLDEN_INVOCATIONS[fixture], target)) == 0
        assert target.read_bytes() == (GOLDEN_DIR / fixture).read_bytes()

    def test_a_failed_pipe_runs_the_halves_in_sequence(self, monkeypatch, tmp_path):
        def exhausted():
            raise OSError(errno.EMFILE, "Too many open files")

        forks = _counted_forks(monkeypatch)
        monkeypatch.setattr(os, "pipe", exhausted)
        monkeypatch.setattr(cli, "FORK_MIN_ORDER", 0)
        fixture = "numbers_fib_5_both.csv"
        target = tmp_path / fixture
        assert cli.main(_with_out(GOLDEN_INVOCATIONS[fixture], target)) == 0
        assert target.read_bytes() == (GOLDEN_DIR / fixture).read_bytes()
        assert forks == []

    # A fresh interpreter that ignores SIGCHLD, as a launcher's setting would
    # leave it, so the kernel reaps each worker; it prints its fork count to
    # stderr after main's own lines.
    SIGCHLD_IGNORED = """if True:
        import os, signal, sys
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        from goldencalc import cli

        forks = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        os.fork = counting
        cli.FORK_MIN_ORDER = 0
        {setup}
        code = cli.main(sys.argv[1:])
        print(len(forks), file=sys.stderr)
        sys.exit(code)
    """

    @pytest.mark.parametrize(
        "argv", [["verify", "8"], ["numbers", "fib", "5", "--method", "both"]], ids=" ".join
    )
    def test_a_worker_the_kernel_reaped_still_delivers(self, argv):
        script = self.SIGCHLD_IGNORED.format(setup="")
        forked = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, timeout=120
        )
        assert (forked.returncode, forked.stderr) == (0, b"1\n")
        assert forked.stdout == run_cli(*argv).stdout

    def test_an_error_here_after_the_kernel_reaped_the_worker(self):
        # this half fails only once the worker is gone, so SIGKILL finds no process
        setup = """
        import time

        def broken(n):
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    os.kill(forks[0], 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            raise ValueError("boom")

        cli.verify_identities = broken
        """
        script = self.SIGCHLD_IGNORED.format(setup=setup)
        result = subprocess.run(
            [sys.executable, "-c", script, "verify", "8"], capture_output=True, timeout=120
        )
        assert result.returncode == 3
        assert result.stderr == b"goldencalc: internal error: ValueError: boom\n1\n"
        assert result.stdout == b""

    def test_no_golden_fixture_forks(self, monkeypatch, tmp_path):
        def refuse():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", refuse)
        _assert_fixtures_in_process(tmp_path)

    @pytest.mark.parametrize("fmt", ["json", "csv", "latex", "plain"])
    def test_forked_output_is_the_sequential_output(self, fmt, monkeypatch, tmp_path):
        commands = (["verify", "8"], ["numbers", "fib", "5", "--method", "both"])
        sequential = []
        for argv in commands:
            target = tmp_path / "sequential"
            assert cli.main([*argv, "--format", fmt, "--out", str(target)]) == 0
            sequential.append(target.read_bytes())
        forks = _counted_forks(monkeypatch)
        monkeypatch.setattr(cli, "FORK_MIN_ORDER", 0)
        for argv, expected in zip(commands, sequential):
            target = tmp_path / "forked"
            assert cli.main([*argv, "--format", fmt, "--out", str(target)]) == 0
            assert target.read_bytes() == expected
        assert len(forks) == 2
        _assert_no_child_left()

    def test_the_worker_never_flushes_the_inherited_stdout(self):
        # stdout is a buffered pipe here, so the text is still in its buffer at the fork
        script = """if True:
            import sys
            from goldencalc import cli

            sys.stdout.write("written once")
            cli.build_numbers_document("fib", 96, "both")
        """
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"written once"

    def test_importing_the_cli_leaves_pickle_unloaded(self):
        # perfbench's setup_s times exactly this import
        code = "import sys, goldencalc.cli; print('pickle' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


class TestPastTheIntStrLimit:
    """Commands whose numbers run past Python's 4300-digit int<->str limit."""

    @pytest.fixture(scope="class")
    def ratio_digits(self):
        table = fibonacci.FibTable(300)
        return lambda n, k: str(Decimal(table.fibonomial(n, k)))

    @pytest.mark.parametrize("fmt", ["json", "csv", "latex", "plain"])
    def test_fibonomial_300(self, fmt, ratio_digits, tmp_path):
        target = tmp_path / "out"
        assert cli.main(["fibonomial", "300", "--format", fmt, "--out", str(target)]) == 0
        text = target.read_text()
        center = ratio_digits(300, 150)
        assert len(center) > 4300
        assert center in text
        if fmt == "json":
            rows = json.loads(text)["payload"]
            assert len(rows) == 301
            for n in (299, 300):
                assert rows[n]["row"] == [ratio_digits(n, k) for k in range(n + 1)]

    @pytest.mark.parametrize("fmt", ["json", "csv", "latex", "plain"])
    def test_binomial_300(self, fmt, ratio_digits, tmp_path):
        target = tmp_path / "out"
        assert cli.main(["binomial", "300", "--format", fmt, "--out", str(target)]) == 0
        text = target.read_text()
        assert ratio_digits(300, 150) in text
        if fmt == "json":
            terms = json.loads(text)["payload"]["terms"]
            assert [term["coefficient"] for term in terms] == [
                ratio_digits(300, k) for k in range(301)
            ]

    def test_numbers_fib_210_recursive(self, capsys):
        assert cli.main(["numbers", "fib", "210", "--method", "recursive"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        numerators = [row["value"].partition("/")[0].lstrip("-") for row in payload]
        assert max(map(len, numerators)) > 4300

    FIB_210 = {
        "numbers": ["numbers", "fib", "210", "--method", "both"],
        "poly": ["poly", "fib", "210"],
        "eval": ["eval", "fib", "210", "--", "-3/7"],
    }

    @pytest.fixture(scope="class")
    def fib_210_documents(self):
        parser = cli.build_parser()
        return {
            command: cli.build_document(parser.parse_args(argv))
            for command, argv in self.FIB_210.items()
        }

    @pytest.mark.parametrize("fmt", ["csv", "latex", "plain"])
    @pytest.mark.parametrize("command", sorted(FIB_210))
    def test_fib_210(self, command, fmt, fib_210_documents):
        document = fib_210_documents[command]
        payload = document.payload
        if command == "numbers":
            assert all(row["match"] for row in payload)
            values = [row[route] for row in payload for route in ("series", "recursive")]
        elif command == "poly":
            values = payload["coefficients"]
        else:
            values = [payload["value"]]
        magnitude = max(values, key=len).lstrip("-")
        assert len(magnitude.partition("/")[0]) > 4300
        expected = latex_rational(magnitude) if fmt == "latex" else magnitude
        assert expected in document.render(fmt)


class TestStreaming:
    """Output goes out row by row: bounded memory, and errors after it started."""

    def test_fibonomial_300_csv_peak_memory(self, tmp_path):
        # The child's own ru_maxrss, from wait4 (RUSAGE_CHILDREN would mix in
        # other children).  It is started from a small launcher process,
        # because exec carries the forking process's resident size into the
        # child's maximum, and this test process may be large.
        launcher = """if True:
            import os, subprocess, sys
            proc = subprocess.Popen(sys.argv[1:])
            _, status, usage = os.wait4(proc.pid, 0)
            print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
        """
        target = tmp_path / "out.csv"
        argv = ["fibonomial", "300", "--format", "csv", "--out", str(target)]
        result = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-m", "goldencalc", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        returncode, max_rss_kib = map(int, result.stdout.split())
        assert returncode == 0
        assert target.stat().st_size > 60 * 2**20  # more output than the memory allowed
        assert max_rss_kib <= 60 * 1024  # ru_maxrss is in KiB on Linux

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_out_file_is_one_line_and_exit_2(self):
        result = run_cli("fibonomial", "250", "--out", "/dev/full")
        assert result.returncode == 2
        assert result.stderr == b"goldencalc: cannot write /dev/full: No space left on device\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_stdout_is_one_line_and_exit_2(self):
        # nothing more may be reported when the interpreter flushes stdout at exit
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "goldencalc", "fibonomial", "250"],
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        assert result.returncode == 2
        assert result.stderr == b"goldencalc: cannot write stdout: No space left on device\n"

    def test_internal_error_mid_stream_is_one_line_and_exit_3(self):
        script = """if True:
            import sys
            from goldencalc import cli

            triangle = cli.fibonomial_triangle

            def failing(max_n):
                for n, row in enumerate(triangle(max_n)):
                    if n == 5:
                        raise RuntimeError("boom")
                    yield row

            cli.fibonomial_triangle = failing
            sys.exit(cli.main(["fibonomial", "40", "--format", "plain"]))
        """
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=120
        )
        assert result.returncode == 3
        assert result.stderr == b"goldencalc: internal error: RuntimeError: boom\n"
        # the rows written before the error stay written
        assert result.stdout == b"row 0: 1\nrow 1: 1 1\nrow 2: 1 1 1\nrow 3: 1 2 2 1\nrow 4: 1 3 6 3 1"
