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
    stages that BoundedSystem._stage builds, and each of its functions
    through the public constructors, which validate, and require equal
    ones.  Yields the list of systems checked so far."""
    from multsys.moments import BoundedSystem
    from multsys.stepfn import StepFunction

    trusted = BoundedSystem._stage.__func__
    checked = []

    def checking(cls, functions, lower, upper, *seed):
        out = trusted(cls, functions, lower, upper, *seed)
        assert BoundedSystem(functions, lower, upper) == out
        assert all(StepFunction(f.breakpoints, f.values) == f for f in functions)
        checked.append(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BoundedSystem, "_stage", classmethod(checking))
        yield checked


@pytest.fixture(scope="session")
def dependent_system():
    """Makes dependent systems as JSON: n functions on [0, 1), each
    with four pieces cut at three distinct sixteenths and values drawn
    from {1, -1, 1/2, -1/2}, bounds [-1, 1], seeded by n.  Almost every
    mixed moment is nonzero, so over the full family the extension's
    merged grid grows about threefold per function: 785,194 pieces at
    n = 13, 2,344,231 at n = 14."""
    import random

    def build(n: int) -> dict:
        rng = random.Random(n)
        functions = []
        for _ in range(n):
            cuts = sorted(rng.sample(range(1, 16), 3))
            functions.append({
                "breakpoints": ["0", *[f"{c}/16" for c in cuts], "1"],
                "values": [rng.choice(["1", "-1", "1/2", "-1/2"]) for _ in range(4)],
            })
        return {"functions": functions, "lower_bounds": ["-1"] * n, "upper_bounds": ["1"] * n}

    return build


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in range(1, _EXPECTED + 1):
        line = _VERDICTS.get(number)
        if line is None:
            line = f"[{number:2d}] FAIL not reached (test errored or was deselected)"
        terminalreporter.write_line(line)
