"""Configuration objects for the DynaSoRe reproduction.

Three families of configuration live here:

* :class:`ClusterSpec` / :class:`FlatClusterSpec` describe the data-center
  topology (paper section 4.3: 1 top switch, 5 intermediate switches, 5 racks
  per intermediate switch, 10 machines per rack, 1 broker per rack).
* :class:`DynaSoReConfig` collects the tunables of the placement algorithm
  (counter slots and period, admission fill factor, eviction threshold).
* :class:`SimulationConfig` and :class:`ExperimentProfile` control how the
  trace-driven simulator runs (extra memory, tick period, time-bucket width,
  warm-up, seed) and at which scale experiments execute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .constants import (
    DEFAULT_ADMISSION_FILL,
    DEFAULT_COUNTER_PERIOD,
    DEFAULT_COUNTER_SLOTS,
    DEFAULT_EVICTION_THRESHOLD,
    HOUR,
)
from .exceptions import ConfigurationError


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a tree-structured data-center cluster.

    The default values reproduce the virtual data center of the paper's
    evaluation: 5 intermediate switches, 5 racks each, 10 machines per rack of
    which one is a broker, for a total of 225 storage servers and 25 brokers.
    """

    intermediate_switches: int = 5
    racks_per_intermediate: int = 5
    machines_per_rack: int = 10
    brokers_per_rack: int = 1

    def __post_init__(self) -> None:
        if self.intermediate_switches < 1:
            raise ConfigurationError("a cluster needs at least one intermediate switch")
        if self.racks_per_intermediate < 1:
            raise ConfigurationError("each intermediate switch needs at least one rack")
        if self.machines_per_rack < 2:
            raise ConfigurationError("each rack needs at least one server and one broker")
        if not 1 <= self.brokers_per_rack < self.machines_per_rack:
            raise ConfigurationError(
                "brokers_per_rack must leave at least one storage server per rack"
            )

    @property
    def servers_per_rack(self) -> int:
        """Number of storage servers in each rack."""
        return self.machines_per_rack - self.brokers_per_rack

    @property
    def total_racks(self) -> int:
        """Total number of racks in the cluster."""
        return self.intermediate_switches * self.racks_per_intermediate

    @property
    def total_servers(self) -> int:
        """Total number of storage servers in the cluster."""
        return self.total_racks * self.servers_per_rack

    @property
    def total_brokers(self) -> int:
        """Total number of broker machines in the cluster."""
        return self.total_racks * self.brokers_per_rack

    def scaled(self, factor: float) -> "ClusterSpec":
        """Return a spec whose rack count is scaled by ``factor`` (≥ 1 rack)."""
        racks = max(1, round(self.racks_per_intermediate * factor))
        return replace(self, racks_per_intermediate=racks)


@dataclass(frozen=True)
class FlatClusterSpec:
    """Shape of the flat cluster used in paper section 4.5.

    All machines hang off a single switch and every machine acts as both a
    cache server and a broker (250 machines in the paper).
    """

    machines: int = 250

    def __post_init__(self) -> None:
        if self.machines < 2:
            raise ConfigurationError("a flat cluster needs at least two machines")


@dataclass(frozen=True)
class DynaSoReConfig:
    """Tunables of the DynaSoRe placement algorithm.

    The defaults follow the paper: 24 one-hour rotating counter slots, the
    admission threshold activates when 90% of a server's memory holds views
    above the threshold, and proactive eviction starts above 95% utilisation.
    """

    counter_slots: int = DEFAULT_COUNTER_SLOTS
    counter_period: float = DEFAULT_COUNTER_PERIOD
    admission_fill: float = DEFAULT_ADMISSION_FILL
    eviction_threshold: float = DEFAULT_EVICTION_THRESHOLD

    def __post_init__(self) -> None:
        if self.counter_slots < 1:
            raise ConfigurationError("counter_slots must be positive")
        if self.counter_period <= 0:
            raise ConfigurationError("counter_period must be positive")
        if not 0.0 < self.admission_fill <= 1.0:
            raise ConfigurationError("admission_fill must be in (0, 1]")
        if not 0.0 < self.eviction_threshold <= 1.0:
            raise ConfigurationError("eviction_threshold must be in (0, 1]")
        if self.eviction_threshold < self.admission_fill:
            # Proactive eviction would empty the admission band every tick.
            raise ConfigurationError(
                "eviction_threshold must not be below admission_fill"
            )


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of a trace-driven simulation run."""

    #: Extra memory, in percent of the space needed to store every view once
    #: (paper section 2.3).  0 means capacity exactly matches |V|.
    extra_memory_pct: float = 30.0
    #: Period of the maintenance tick (counter rotation, threshold update,
    #: eviction sweep).  The paper shifts counters every hour.
    tick_period: float = HOUR
    #: Width of the time buckets used for reported traffic series.
    bucket_width: float = HOUR
    #: Traffic before this simulated time is not recorded.  The paper reports
    #: the steady-state traffic "after convergence" for Figure 3 and the
    #: tables, so those experiments treat the first part of the trace as a
    #: warm-up phase.
    measure_from: float = 0.0
    #: Seed of the run's scenarios, and of a ``RunSpec``'s strategy unless
    #: its ``strategy_seed`` is set; a strategy keeps its constructor seed.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.extra_memory_pct < 0:
            raise ConfigurationError("extra_memory_pct cannot be negative")
        if self.tick_period <= 0 or self.bucket_width <= 0:
            raise ConfigurationError("tick_period and bucket_width must be positive")
        if self.measure_from < 0:
            raise ConfigurationError("measure_from cannot be negative")


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale profile of the experiment harness.

    The paper's experiments run over millions of users on a 250-machine Java
    simulator; a pure-Python reproduction needs adjustable scale.  A profile
    bundles the cluster shape, graph sizes and trace lengths so every figure
    and table can be regenerated at ``ci``, ``laptop`` or ``paper`` scale.
    """

    name: str
    cluster: ClusterSpec
    flat_machines: int
    users: dict[str, int]
    synthetic_days: float
    trace_days: float
    memory_sweep: tuple[float, ...]
    flash_repetitions: int
    seed: int = 7
    #: Default worker-process count of the experiment runtime (overridden by
    #: the CLI's ``--jobs``); 1 executes in-process.
    jobs: int = 1
    #: Directory of the runtime's on-disk result cache (used by the CLI;
    #: ``--no-cache`` bypasses it).
    cache_dir: str = ".repro-cache"

    @staticmethod
    def ci() -> "ExperimentProfile":
        """Tiny profile: what the test-suite runs every experiment's claims at."""
        return ExperimentProfile(
            name="ci",
            cluster=ClusterSpec(
                intermediate_switches=3,
                racks_per_intermediate=2,
                machines_per_rack=4,
                brokers_per_rack=1,
            ),
            flat_machines=18,
            users={"twitter": 600, "facebook": 800, "livejournal": 1000},
            synthetic_days=1.0,
            trace_days=2.0,
            memory_sweep=(0.0, 30.0, 100.0),
            flash_repetitions=3,
        )

    @staticmethod
    def laptop() -> "ExperimentProfile":
        """Default profile for the examples: minutes, not hours."""
        return ExperimentProfile(
            name="laptop",
            cluster=ClusterSpec(
                intermediate_switches=5,
                racks_per_intermediate=3,
                machines_per_rack=6,
                brokers_per_rack=1,
            ),
            flat_machines=75,
            users={"twitter": 4000, "facebook": 6000, "livejournal": 8000},
            synthetic_days=2.0,
            trace_days=4.0,
            memory_sweep=(0.0, 30.0, 50.0, 100.0, 150.0, 200.0),
            flash_repetitions=10,
        )

    @staticmethod
    def paper() -> "ExperimentProfile":
        """The paper's cluster shape and memory sweep (slow in pure Python)."""
        return ExperimentProfile(
            name="paper",
            cluster=ClusterSpec(),
            flat_machines=250,
            users={"twitter": 50000, "facebook": 80000, "livejournal": 100000},
            synthetic_days=3.0,
            trace_days=14.0,
            memory_sweep=(0.0, 30.0, 50.0, 100.0, 150.0, 200.0),
            flash_repetitions=100,
        )

    @staticmethod
    def by_name(name: str) -> "ExperimentProfile":
        """Look up a profile by name (``ci``, ``laptop`` or ``paper``)."""
        factories = {
            "ci": ExperimentProfile.ci,
            "laptop": ExperimentProfile.laptop,
            "paper": ExperimentProfile.paper,
        }
        if name not in factories:
            raise ConfigurationError(
                f"unknown profile {name!r}; expected one of {sorted(factories)}"
            )
        return factories[name]()


__all__ = [
    "ClusterSpec",
    "FlatClusterSpec",
    "DynaSoReConfig",
    "SimulationConfig",
    "ExperimentProfile",
]
