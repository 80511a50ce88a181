"""Tests for the configuration objects."""

from __future__ import annotations

import pytest

from repro.config import (
    ClusterSpec,
    DynaSoReConfig,
    ExperimentProfile,
    FlatClusterSpec,
    SimulationConfig,
)
from repro.exceptions import ConfigurationError


class TestClusterSpec:
    def test_paper_defaults(self):
        spec = ClusterSpec()
        assert spec.intermediate_switches == 5
        assert spec.racks_per_intermediate == 5
        assert spec.machines_per_rack == 10
        assert spec.total_racks == 25
        assert spec.total_servers == 225
        assert spec.total_brokers == 25

    def test_servers_per_rack_excludes_brokers(self):
        spec = ClusterSpec(machines_per_rack=10, brokers_per_rack=2)
        assert spec.servers_per_rack == 8

    def test_rejects_zero_intermediates(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(intermediate_switches=0)

    def test_rejects_rack_with_no_server(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(machines_per_rack=2, brokers_per_rack=2)

    def test_rejects_single_machine_rack(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(machines_per_rack=1)

    def test_scaled_keeps_at_least_one_rack(self):
        spec = ClusterSpec(racks_per_intermediate=5)
        assert spec.scaled(0.01).racks_per_intermediate == 1

    def test_scaled_rounds_rack_count(self):
        spec = ClusterSpec(racks_per_intermediate=4)
        assert spec.scaled(0.5).racks_per_intermediate == 2


class TestFlatClusterSpec:
    def test_default_matches_paper(self):
        assert FlatClusterSpec().machines == 250

    def test_rejects_single_machine(self):
        with pytest.raises(ConfigurationError):
            FlatClusterSpec(machines=1)


class TestDynaSoReConfig:
    def test_defaults_match_paper(self):
        config = DynaSoReConfig()
        assert config.counter_slots == 24
        assert config.counter_period == 3600.0
        assert config.admission_fill == pytest.approx(0.90)
        assert config.eviction_threshold == pytest.approx(0.95)

    def test_rejects_bad_counter_slots(self):
        with pytest.raises(ConfigurationError):
            DynaSoReConfig(counter_slots=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"admission_fill": 1.5},
            # Eviction below the admission band would empty it every tick.
            {"admission_fill": 0.9, "eviction_threshold": 0.85},
        ],
        ids=["above_one", "above_eviction"],
    )
    def test_rejects_bad_admission_fill(self, fields):
        with pytest.raises(ConfigurationError):
            DynaSoReConfig(**fields)

    def test_accepts_eviction_at_admission_fill(self):
        config = DynaSoReConfig(admission_fill=0.8, eviction_threshold=0.8)
        assert config.eviction_threshold == config.admission_fill

    def test_rejects_bad_counter_period(self):
        with pytest.raises(ConfigurationError):
            DynaSoReConfig(counter_period=0.0)

    def test_rejects_bad_eviction_threshold(self):
        with pytest.raises(ConfigurationError):
            DynaSoReConfig(eviction_threshold=1.5)


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.tick_period == 3600.0

    def test_rejects_negative_memory(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(extra_memory_pct=-1.0)

    def test_rejects_negative_measure_from(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(measure_from=-1.0)

    def test_rejects_zero_tick(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(tick_period=0.0)


class TestExperimentProfile:
    def test_by_name_round_trip(self):
        for name in ("ci", "laptop", "paper"):
            assert ExperimentProfile.by_name(name).name == name

    def test_by_name_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            ExperimentProfile.by_name("galactic")

    def test_paper_profile_uses_paper_cluster(self):
        profile = ExperimentProfile.paper()
        assert profile.cluster.total_servers == 225
        assert profile.flat_machines == 250
        assert profile.memory_sweep[0] == 0.0

    def test_ci_profile_is_small(self):
        profile = ExperimentProfile.ci()
        assert profile.cluster.total_servers <= 30
        assert max(profile.users.values()) <= 2000
