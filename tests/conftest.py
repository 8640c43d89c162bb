import contextlib
import io
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import settings

from kgpair.cli import main

# one profile for every property test: 40 examples and no per-example deadline,
# since the first example of a run also pays numpy and scan warm-up
settings.register_profile("kgpair", max_examples=40, deadline=None)
settings.load_profile("kgpair")

ACCEPTANCE_LINES = []


def run_cli(*args) -> subprocess.CompletedProcess:
    """``kgpair *args`` run in this process: ``main`` with stdout and stderr
    captured, and argparse's SystemExit turned into its exit code."""
    argv = [str(arg) for arg in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(["kgpair", *argv], code, out.getvalue(), err.getvalue())


def run_cli_subprocess(*args, timeout=120) -> subprocess.CompletedProcess:
    """``python -m kgpair.cli *args`` in a child process; a hang fails the test
    with TimeoutExpired instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-m", "kgpair.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def acceptance_record():
    """Record a pass/fail verdict line for one acceptance criterion."""

    def record(criterion: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"[ACCEPTANCE] {criterion}: {status}"
        if detail:
            line += f" — {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """``kgpair simulate`` on the bundled config, run once for the tests that
    read it: (result, output prefix)."""
    config = resources.files("kgpair.configs").joinpath("resonant_c5.cfg")
    prefix = tmp_path_factory.mktemp("bundled") / "exp"
    return run_cli("simulate", "--config", config, "--output", prefix), prefix


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
