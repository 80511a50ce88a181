"""Crash recovery: losing a cache server and rebuilding its views.

DynaSoRe's durability story (paper sections 2.2 and 3.3): every write is
persisted in a write-ahead log before it reaches the cache, so a crashed
server's views can always be rebuilt — quickly from surviving in-memory
replicas when the view was replicated, otherwise from the persistent store.
The example runs some traffic so DynaSoRe creates replicas, crashes the most
loaded server, plans the recovery, and reports how much of the lost data was
still available in memory.

Run with::

    python examples/crash_recovery.py
"""

from __future__ import annotations

from repro import ClusterSpec, SimulationConfig, TreeTopology, facebook_like
from repro.core.engine import DynaSoRe
from repro.persistence.backend import PersistentStore
from repro.persistence.recovery import execute_recovery, plan_recovery
from repro.persistence.wal import WriteAheadLog
from repro.simulator.engine import ClusterSimulator
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


def main() -> None:
    graph = facebook_like(users=400, seed=11)
    topology = TreeTopology(
        ClusterSpec(intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4)
    )

    # Durable backend: every user has written at least once.
    persistent = PersistentStore(WriteAheadLog())
    for user in graph.users:
        persistent.process_write(user, timestamp=0.0, payload=b"hello")

    # Run half a day of traffic so DynaSoRe replicates the popular views.
    log = SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=0.5, seed=11)
    ).stream()
    simulator = ClusterSimulator(
        topology,
        graph,
        DynaSoRe(initializer="hmetis", seed=11),
        SimulationConfig(extra_memory_pct=100.0, seed=11),
    )
    simulator.run(log)
    strategy = simulator.strategy

    locations = {user: set(devices) for user, devices in strategy.replica_locations().items()}
    load = {}
    for devices in locations.values():
        for device in devices:
            load[device] = load.get(device, 0) + 1
    crashed = max(load, key=load.get)
    print(f"crashing server {topology.devices[crashed].name} holding {load[crashed]} views")

    plan = plan_recovery(crashed, locations)
    print(f"views lost                      : {plan.total_views}")
    print(f"recoverable from other replicas : {len(plan.recoverable_from_memory)}")
    print(f"recoverable from disk only      : {len(plan.recoverable_from_disk)}")
    print(f"in-memory recovery fraction     : {plan.memory_recovery_fraction:.0%}")

    survivors = [s.index for s in topology.servers if s.index != crashed]
    targets = {
        user: survivors[i % len(survivors)]
        for i, user in enumerate(plan.recoverable_from_memory + plan.recoverable_from_disk)
    }
    recovered = execute_recovery(plan, locations, targets, persistent)
    print(f"recovered views                 : {len(recovered)}")
    assert all(crashed not in devices for devices in locations.values())
    print("every view is available again; no data was lost.")


if __name__ == "__main__":
    main()
