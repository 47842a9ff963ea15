import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bicone.moduli import ModulusFunction

settings.register_profile(
    "repro", derandomize=True, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("repro")


@pytest.fixture
def below_identity(monkeypatch):
    """Every modulus reports the profile of phi(s) = s^2 < s, which is inadmissible."""
    monkeypatch.setattr(ModulusFunction, "profile_log",
                        lambda self, u: (np.exp(-2.0 * u), np.full_like(u, 2.0)))
