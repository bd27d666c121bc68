import faulthandler

import pytest

from pbemoc.harness import mms_problem

# (number, name, outcome, detail); outcome is True/False/None (None = skipped)
_ACCEPTANCE_RESULTS = []


def record_criterion(number, name, passed, detail=""):
    _ACCEPTANCE_RESULTS.append((number, name, passed, detail))


@pytest.fixture(autouse=True)
def hang_guard():
    # a deadlocked pipeline dumps every thread's stack and ends the run
    # instead of stalling it
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def mms():
    return mms_problem()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed, detail in sorted(_ACCEPTANCE_RESULTS, key=lambda r: str(r[0])):
        status = {True: "PASS", False: "FAIL", None: "SKIP"}[passed]
        line = f"criterion {number} ({name}): {status}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
