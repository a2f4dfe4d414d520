import pytest
from hypothesis import HealthCheck, settings

from hpgenus import selftest

# Deterministic property runs: same inputs on every invocation.
settings.register_profile(
    "deterministic",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def no_suite(monkeypatch):
    """Make the first selftest suite fail, so a run_all that must raise first cannot pass."""

    def never(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(selftest, "ring_axiom_suite", never)
