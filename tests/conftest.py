from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qmetro import schur
from qmetro.scenarios import build_scenario, parse_scenario
from qmetro.states import evaluate

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def qubit_state():
    def make(delta: float = 0.0):
        family = build_scenario(parse_scenario("qubit3", delta=delta))
        return evaluate(family, np.zeros(3))

    return make


@pytest.fixture
def qutrit_state():
    def make(preset: str = "qutrit8"):
        spec = parse_scenario(preset)
        family = build_scenario(spec)
        return evaluate(family, np.zeros(family.n)), spec

    return make


@pytest.fixture
def cold_gt_cache(monkeypatch):
    """An empty GT basis cache for one test, so that a memory bound holds
    whatever ran before it; the shared cache comes back afterwards."""
    monkeypatch.setattr(schur, "_cache", {})
