"""Shared fixtures plus the acceptance verdict summary.

Acceptance tests register one verdict line each through the `acceptance`
fixture; the terminal summary hook prints them in numeric order after
the run so the pass/fail state of every acceptance item is visible even
with captured output.
"""

import pytest

_VERDICTS: dict[int, str] = {}
_EXPECTED = 11


class AcceptanceLog:
    def record(self, number: int, ok: bool, detail: str) -> None:
        word = "PASS" if ok else "FAIL"
        _VERDICTS[number] = f"[{number:2d}] {word} {detail}"


@pytest.fixture(scope="session")
def acceptance() -> AcceptanceLog:
    return AcceptanceLog()


@pytest.fixture(scope="module")
def validated_stages():
    """Rebuild every system made with no re-validation, the reduction
    stages that BoundedSystem._from_parts builds, through the public
    constructor, which validates, and require an equal system.  Yields the
    list of systems checked so far."""
    from multsys.moments import BoundedSystem

    trusted = BoundedSystem._from_parts.__func__
    checked = []

    def checking(cls, *parts):
        out = trusted(cls, *parts)
        assert BoundedSystem(*parts) == out
        checked.append(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BoundedSystem, "_from_parts", classmethod(checking))
        yield checked


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in range(1, _EXPECTED + 1):
        line = _VERDICTS.get(number)
        if line is None:
            line = f"[{number:2d}] FAIL not reached (test errored or was deselected)"
        terminalreporter.write_line(line)
