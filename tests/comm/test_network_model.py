"""Self-consistency of the closed-form collective cost oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cluster import NetworkSpec
from tests.comm.network_model import NetworkModel


@pytest.fixture
def model():
    return NetworkModel(NetworkSpec(latency=1e-5, bandwidth=1.0))


class TestCostModels:
    def test_p2p(self, model):
        assert model.p2p(1e9) == pytest.approx(1.0 + 1e-5)

    def test_bcast_single_rank_free(self, model):
        assert model.bcast(1e6, 1) == 0.0

    def test_bcast_log_rounds(self, model):
        assert model.bcast(1e9, 8) == pytest.approx(3 * model.p2p(1e9))
        assert model.bcast(1e9, 9) == pytest.approx(4 * model.p2p(1e9))

    def test_gather_linear(self, model):
        assert model.gather(1e6, 5) == pytest.approx(4 * model.p2p(1e6))

    def test_scatter_equals_gather(self, model):
        assert model.scatter(1e6, 7) == model.gather(1e6, 7)

    @settings(max_examples=30, deadline=None)
    @given(nbytes=st.floats(0, 1e9), ranks=st.integers(1, 64))
    def test_costs_nonnegative_and_monotone_in_ranks(self, model, nbytes, ranks):
        for fn in (model.bcast, model.gather):
            cost = fn(nbytes, ranks)
            assert cost >= 0.0
            assert fn(nbytes, ranks + 1) >= cost - 1e-12

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.bcast(-1.0, 2)
        with pytest.raises((ValueError, TypeError)):
            model.bcast(1.0, 0)
