"""Declarative run specifications.

A :class:`RunSpec` is a frozen, hashable description of one simulation run:
which topology to build, which social graph to generate, which request log
to replay, which placement strategy to deploy and under which
:class:`~repro.config.SimulationConfig` (plus an optional fault/load
scenario).  Because a spec contains only plain data it can be

* hashed into a stable cache key (the on-disk result cache),
* pickled across process boundaries (the parallel executor),
* expanded into grids (strategy x memory x dataset x scenario) by
  :mod:`repro.runtime.grid`.

The middleware literature calls this a *declarative request description
layer*: experiments say **what** to run, the
:class:`~repro.runtime.executor.RuntimeExecutor` decides **how**.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..baselines import (
    INITIAL_PLACEMENTS,
    PlacementStrategy,
    SparPlacement,
    StaticPlacementStrategy,
)
from ..config import ClusterSpec, DynaSoReConfig, FlatClusterSpec, SimulationConfig
from ..exceptions import ConfigurationError
from ..socialgraph.generators import dataset_preset, generate_social_graph
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from ..topology.flat import FlatTopology
from ..topology.tree import TreeTopology
from ..workload.flash import inject_flash_stream, plan_flash_event
from ..workload.stream import EventStream
from ..workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from ..workload.trace import NewsActivityTraceConfig, NewsActivityTraceGenerator

#: Bump when the semantics of spec execution change, so stale on-disk cache
#: entries from older code are never served.  Version 2: workloads are
#: generated through the chunked stream pipeline.  Version 3: static METIS
#: and hMETIS deploy a capacity-fitted assignment, as DynaSoRe does (their
#: 0 % extra-memory results moved).
SPEC_VERSION = 3


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """Declarative cluster topology: a tree of switches or a flat cluster."""

    kind: str = "tree"
    cluster: ClusterSpec | None = None
    machines: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("tree", "flat"):
            raise ConfigurationError(f"unknown topology kind {self.kind!r}")

    def build(self) -> ClusterTopology:
        """Materialise the topology."""
        if self.kind == "tree":
            return TreeTopology(self.cluster or ClusterSpec())
        machines = self.machines if self.machines is not None else 250
        return FlatTopology(FlatClusterSpec(machines=machines))

    @staticmethod
    def tree(cluster: ClusterSpec) -> "TopologySpec":
        return TopologySpec(kind="tree", cluster=cluster)

    @staticmethod
    def flat(machines: int) -> "TopologySpec":
        return TopologySpec(kind="flat", machines=machines)


@dataclass(frozen=True)
class GraphSpec:
    """Declarative social graph: a scaled analogue of one paper dataset."""

    dataset: str
    users: int
    seed: int

    def build(self) -> SocialGraph:
        """Generate the graph (deterministic in the seed)."""
        return generate_social_graph(
            dataset_preset(self.dataset, users=self.users), seed=self.seed
        )


@dataclass(frozen=True)
class FlashSpec:
    """Flash event injected into a workload (paper section 4.6)."""

    followers: int
    start_day: float
    end_day: float
    reads_per_follower_per_day: float = 4.0


#: Workload kinds understood by :class:`WorkloadSpec`.
WORKLOAD_KINDS = ("synthetic", "trace", "file")


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload: a generated stream (synthetic or trace-like) or
    a binary trace file, optionally with a flash event merged in.

    Workers rebuild the *stream* from this spec — nothing but the spec
    crosses process boundaries, and replay consumes chunks lazily, so a
    paper-scale workload is never materialised per worker.
    """

    kind: str
    days: float
    seed: int
    flash: FlashSpec | None = None
    #: Model-specific parameters (sorted key/value pairs; see ``of``).
    params: tuple[tuple[str, object], ...] = ()
    #: Path of a binary trace file (``kind="file"`` only).
    path: str | None = None
    #: SHA-256 of the trace file's bytes (``kind="file"`` only): the
    #: content address used for result-cache keys and integrity checks.
    content_hash: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(f"unknown workload kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigurationError("file workloads require a path")

    @staticmethod
    def of(kind: str, days: float, seed: int, flash: FlashSpec | None = None, **params):
        """Build a spec with model parameters (sorted for stable hashing)."""
        return WorkloadSpec(
            kind=kind,
            days=days,
            seed=seed,
            flash=flash,
            params=tuple(sorted(params.items())),
        )

    @staticmethod
    def from_file(path, flash: FlashSpec | None = None, seed: int = 0) -> "WorkloadSpec":
        """Content-addressed spec for a saved binary trace file.

        ``seed`` only matters together with ``flash``: it drives the flash
        target choice and the injected read timestamps, so sweeping flash
        randomness over one saved trace means varying ``seed`` here.
        """
        from ..workload.io import trace_content_hash

        return WorkloadSpec(
            kind="file",
            days=0.0,
            seed=seed,
            flash=flash,
            path=str(path),
            content_hash=trace_content_hash(path),
        )

    def cache_token(self) -> str:
        """Contribution of this workload to the run's cache key.

        File workloads are addressed by *content*, not by path: moving a
        trace file never invalidates cached results, and two paths holding
        identical bytes share entries.  A hand-built file spec without a
        content hash (``from_file`` always sets one) falls back to the
        path, so distinct trace files can never collide on one cache key.
        """
        if self.kind == "file":
            address = self.content_hash or f"path={self.path}"
            if self.flash is None:
                return f"WorkloadSpec(file:{address}, flash=None)"
            # The seed still matters with a flash event: it drives the
            # flash target choice and the injected read timestamps.
            return (
                f"WorkloadSpec(file:{address}, flash={self.flash!r}, "
                f"seed={self.seed})"
            )
        return repr(self)

    def build_stream(self, graph: SocialGraph) -> tuple[EventStream, tuple[int, ...]]:
        """Build the chunked event stream; returns ``(stream, tracked views)``.

        The tracked views are non-empty only for flash workloads: the flash
        target is chosen here (deterministically from the seed), so only the
        builder knows which view the experiment must sample.
        """
        params = dict(self.params)
        if self.kind == "synthetic":
            stream = SyntheticWorkloadGenerator(
                graph, SyntheticWorkloadConfig(days=self.days, seed=self.seed, **params)
            ).stream()
        elif self.kind == "trace":
            stream = NewsActivityTraceGenerator(
                graph, NewsActivityTraceConfig(days=self.days, seed=self.seed, **params)
            ).stream()
        else:
            stream = self._load_trace_file()
        if self.flash is None:
            return stream, ()
        rng = random.Random(self.seed)
        event = plan_flash_event(
            graph,
            rng,
            followers=self.flash.followers,
            start_day=self.flash.start_day,
            end_day=self.flash.end_day,
        )
        stream = inject_flash_stream(
            stream,
            event,
            reads_per_follower_per_day=self.flash.reads_per_follower_per_day,
            seed=self.seed,
        )
        return stream, (event.target_user,)

    def _load_trace_file(self) -> EventStream:
        from ..exceptions import WorkloadError
        from ..workload.io import read_trace, trace_content_hash

        if self.content_hash is not None:
            actual = trace_content_hash(self.path)
            if actual != self.content_hash:
                raise WorkloadError(
                    f"trace file {self.path} changed on disk: content hash "
                    f"{actual[:12]}… does not match the spec's "
                    f"{self.content_hash[:12]}…"
                )
        return read_trace(self.path)


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative fault/load scenario (name + constructor parameters)."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def of(kind: str, **params) -> "ScenarioSpec":
        """Build a spec from keyword parameters (sorted for stable hashing)."""
        return ScenarioSpec(kind=kind, params=tuple(sorted(params.items())))

    def build(self):
        """Materialise the scenario object."""
        from ..scenarios.faults import CrashRecoverScenario
        from ..scenarios.load import DiurnalLoadScenario

        builders = {
            "crash_recover": CrashRecoverScenario,
            "diurnal_load": DiurnalLoadScenario,
        }
        builder = builders.get(self.kind)
        if builder is None:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; known: {sorted(builders)}"
            )
        return builder(**dict(self.params))


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------
#: Labels of every placement strategy evaluated by the paper, in report order.
STRATEGY_KEYS = (
    "random",
    "metis",
    "hmetis",
    "spar",
    "dynasore_random",
    "dynasore_metis",
    "dynasore_hmetis",
)


def build_strategy(
    key: str, seed: int, dynasore_config: DynaSoReConfig | None = None
) -> PlacementStrategy:
    """Fresh, unbound strategy instance for a registry key: ``spar``,
    ``dynasore_<name>`` or a static ``<name>``, where ``<name>`` is an
    initial placement of :data:`~repro.baselines.placements.INITIAL_PLACEMENTS`."""
    from ..core.engine import DynaSoRe

    if key == "spar":
        return SparPlacement(seed=seed)
    if key.startswith("dynasore_"):
        return DynaSoRe(
            initializer=key.removeprefix("dynasore_"),
            config=dynasore_config or DynaSoReConfig(),
            seed=seed,
        )
    if key in INITIAL_PLACEMENTS:
        return StaticPlacementStrategy(key, seed=seed)
    raise ConfigurationError(
        f"unknown strategy key {key!r}; known: {', '.join(STRATEGY_KEYS)}"
    )


# ---------------------------------------------------------------------------
# The run spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """Complete, declarative description of one simulation run."""

    topology: TopologySpec
    graph: GraphSpec
    workload: WorkloadSpec
    strategy: str
    config: SimulationConfig = field(default_factory=SimulationConfig)
    scenario: ScenarioSpec | None = None
    #: Strategy seed; ``None`` means "use ``config.seed``" (the common case).
    strategy_seed: int | None = None
    #: DynaSoRe tunables (ignored by the baselines).
    dynasore_config: DynaSoReConfig | None = None
    #: Extra views whose replica counts are sampled during the run, on top
    #: of any view the workload itself asks to track (flash targets).
    tracked_views: tuple[int, ...] = ()

    def effective_strategy_seed(self) -> int:
        """Seed used to build the strategy."""
        return self.config.seed if self.strategy_seed is None else self.strategy_seed

    def cache_key(self) -> str:
        """Stable content hash of the spec (the result-cache key).

        Built from the reprs of frozen dataclasses of plain values, which
        are deterministic across processes and sessions (unlike ``hash()``,
        which is randomised for strings).
        """
        payload = (
            f"v{SPEC_VERSION}|{self.topology!r}|{self.graph!r}|"
            f"{self.workload.cache_token()}|"
            f"{self.strategy}|{self.config!r}|{self.scenario!r}|"
            f"{self.strategy_seed!r}|{self.dynasore_config!r}|{self.tracked_views!r}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


__all__ = [
    "FlashSpec",
    "GraphSpec",
    "RunSpec",
    "STRATEGY_KEYS",
    "ScenarioSpec",
    "SPEC_VERSION",
    "TopologySpec",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "build_strategy",
]
