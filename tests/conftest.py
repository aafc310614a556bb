import math
import os

import pytest
from hypothesis import HealthCheck, settings

from cpdq_lab import IntegratorConfig, Potential, integrate_hamilton, natural_units

settings.register_profile(
    "lab", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("lab")


@pytest.fixture(scope="session")
def consts():
    return natural_units()


@pytest.fixture(scope="session")
def harmonic_traj(consts):
    """Leapfrog harmonic oscillator, m = omega = 1, dt = 1e-3, 10 periods."""
    n = int(round(10 * 2 * math.pi / 1e-3))
    return integrate_hamilton(Potential("harmonic"), 1.0, 0.0,
                              IntegratorConfig(dt=1e-3, n_steps=n), consts)


@pytest.fixture
def forks(monkeypatch) -> list:
    """One entry per os.fork this process makes from here on."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls
