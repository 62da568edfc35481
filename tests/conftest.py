"""Shared fixtures: the paper's hardware presets and small test rigs."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.hardware import bigred2_node, delta_cluster, delta_node

# Hardware fixtures are frozen dataclasses: sharing one instance across the
# examples hypothesis generates is safe, so the function-scoped-fixture
# health check is a false positive here.  Deadlines are disabled because
# simulation-heavy property tests have legitimately variable runtimes.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
settings.load_profile("repro")


@pytest.fixture
def delta():
    """A Delta fat node in the paper's experimental configuration (1 GPU)."""
    return delta_node(n_gpus=1)


@pytest.fixture
def delta_two_gpus():
    """A full Delta fat node (2 GPUs, as in Table 4)."""
    return delta_node(n_gpus=2)


@pytest.fixture
def bigred2():
    return bigred2_node()


@pytest.fixture
def delta4():
    """The 4-node Delta cluster of Table 3."""
    return delta_cluster(n_nodes=4, n_gpus=1)


@pytest.fixture
def delta8():
    """The 8-node Delta cluster of Figure 6."""
    return delta_cluster(n_nodes=8, n_gpus=1)
