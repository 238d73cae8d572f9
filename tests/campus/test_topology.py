"""CampusTopology / MobilityPlan / HandoffSpec configuration contract."""

import pytest

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.errors import ConfigurationError


class TestMobilityPlan:
    def test_disabled_by_default(self):
        assert not MobilityPlan().enabled
        assert MobilityPlan(roam_rate=0.01).enabled

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ConfigurationError):
            MobilityPlan(roam_rate=rate)

    def test_rejects_bad_epoch(self):
        with pytest.raises(ConfigurationError):
            MobilityPlan(epoch_s=0.0)


class TestHandoffSpec:
    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            HandoffSpec(policy="teleport")

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            HandoffSpec(latency_s=-0.001)


class TestCampusTopology:
    @pytest.mark.parametrize("n_cells", [0, -1, 33, True, 2.0])
    def test_rejects_bad_cell_count(self, n_cells):
        with pytest.raises(ConfigurationError):
            CampusTopology(n_cells=n_cells)

    def test_rejects_mobility_without_cells(self):
        with pytest.raises(ConfigurationError):
            CampusTopology(n_cells=1, mobility=MobilityPlan(roam_rate=0.5))
