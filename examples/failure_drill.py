"""Failure drill: crashes, churn and load dynamics through the scenario layer.

Where ``examples/crash_recovery.py`` crashes one server after the run with
``ClusterSimulator.crash_server``, this drill schedules its faults through
the :mod:`repro.scenarios` subsystem: a composed scenario thins the load
with a day/night cycle, crashes two servers mid-run, drains a third
gracefully and brings everyone back — all in simulated time, with writes
mirrored to the WAL-backed persistent store so crashed sole replicas are
recovered from disk.

Run with::

    python examples/failure_drill.py
"""

from __future__ import annotations

from repro import (
    ClusterSpec,
    CompositeScenario,
    CrashRecoverScenario,
    DiurnalLoadScenario,
    SimulationConfig,
    TreeTopology,
    facebook_like,
)
from repro.core.engine import DynaSoRe
from repro.persistence.backend import PersistentStore
from repro.simulator.engine import ClusterSimulator
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


def main() -> None:
    graph = facebook_like(users=400, seed=11)
    topology = TreeTopology(
        ClusterSpec(intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4)
    )

    # Durable backend: every user has written at least once, so even a view
    # that never writes during the run can be rebuilt after a crash.
    persistent = PersistentStore()
    for user in graph.users:
        persistent.process_write(user, timestamp=0.0, payload=b"hello")

    log = SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=0.5, seed=11)
    ).stream()
    duration = log.stats().last_timestamp

    scenario = CompositeScenario(
        DiurnalLoadScenario(trough_fraction=0.5),
        # Two servers crash abruptly a third of the way in ...
        CrashRecoverScenario(
            crash_time=duration / 3.0, recover_time=2.0 * duration / 3.0, count=2
        ),
        # ... and another leaves gracefully (drain: views copied out).
        CrashRecoverScenario(
            crash_time=duration / 2.0,
            recover_time=duration * 0.9,
            count=1,
            graceful=True,
        ),
    )

    simulator = ClusterSimulator(
        topology,
        graph,
        DynaSoRe(initializer="hmetis", seed=11),
        SimulationConfig(extra_memory_pct=100.0, seed=11),
        scenario=scenario,
        persistent_store=persistent,
    )
    result = simulator.run(log)

    print(f"requests executed  : {result.requests_executed} (diurnally thinned)")
    for record in result.fault_records:
        name = topology.devices[topology.servers[record.position].index].name
        if record.kind == "restore":
            print(f"{record.timestamp / 3600.0:5.1f}h  {record.kind:7s} {name}")
        else:
            print(
                f"{record.timestamp / 3600.0:5.1f}h  {record.kind:7s} {name}  "
                f"recovered {record.views_from_memory} views from memory, "
                f"{record.views_from_disk} from the persistent store"
            )

    counters = simulator.strategy.counters
    print(f"replicas created   : {counters.replicas_created}")
    print(f"servers lost       : {counters.servers_lost}")
    print(f"views unavailable  : {result.unavailable_views}")
    print(f"memory in use      : {result.memory_in_use} / {simulator.budget.total_capacity}")
    persistent.verify_integrity()
    assert result.unavailable_views == 0
    assert all(simulator.server_up)
    print("every view is available again; no data was lost.")


if __name__ == "__main__":
    main()
