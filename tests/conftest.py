import sys
from pathlib import Path

import pytest

# Allow running the tests from a fresh checkout without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from chromcert import connectivity  # noqa: E402
from chromcert.solver import extend, validate_template  # noqa: E402
from chromcert.templates import degree  # noqa: E402


@pytest.fixture
def is_valid_witness():
    """The three witness conditions on (g, t) at k: degree at most 2k^2,
    every forbidden list of size at most 2k, and no respecting colouring
    (checked by the extension solver), for a template well formed on g."""
    def check(g, t, k, palette):
        validate_template(g, t, palette)
        if degree(t, k) > 2 * k * k:
            return False
        if any(len(fs) > 2 * k for fs in t.forbidden.values()):
            return False
        return extend(g, t, palette).outcome == "unsat"

    return check


def _count_calls(monkeypatch, name):
    """A one-item list counting the calls of _SplitNetwork.<name>."""
    method, calls = getattr(connectivity._SplitNetwork, name), [0]

    def counting(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(connectivity._SplitNetwork, name, counting)
    return calls


@pytest.fixture
def count_flows(monkeypatch):
    """A one-item list counting the calls of _SplitNetwork.flow during the
    test; reset it to zero to count from a later point."""
    return _count_calls(monkeypatch, "flow")


@pytest.fixture
def count_searches(monkeypatch):
    """A one-item list counting the augmenting searches that flows run
    (_SplitNetwork._augment calls), as count_flows counts the flows."""
    return _count_calls(monkeypatch, "_augment")
