import pytest
from hypothesis import settings

# one profile for every property test: 40 examples and no per-example deadline,
# since the first example of a run also pays numpy and scan warm-up
settings.register_profile("kgpair", max_examples=40, deadline=None)
settings.load_profile("kgpair")

ACCEPTANCE_LINES = []


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
