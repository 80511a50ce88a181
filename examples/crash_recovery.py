"""Crash recovery: losing a cache server and rebuilding its views.

DynaSoRe's durability story (paper sections 2.2 and 3.3): every write is
persisted in a write-ahead log before it reaches the cache, so a crashed
server's views can always be rebuilt — quickly from surviving in-memory
replicas when the view was replicated, otherwise from the persistent store.
The example runs some traffic so DynaSoRe creates replicas, crashes the most
loaded server through the simulator, and reports how much of the lost data
was still available in memory.

Run with::

    python examples/crash_recovery.py
"""

from __future__ import annotations

from repro import ClusterSpec, SimulationConfig, TreeTopology, facebook_like
from repro.core.engine import DynaSoRe
from repro.persistence.backend import PersistentStore
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
        persistent_store=persistent,
    )
    simulator.run(log)
    strategy = simulator.strategy

    used = strategy.tables.used
    crashed = max(range(len(used)), key=used.__getitem__)
    held = used[crashed]
    name = topology.devices[topology.servers[crashed].index].name
    print(f"crashing server {name} holding {held} views")

    record = simulator.crash_server(crashed, now=log.stats().last_timestamp)
    print(f"views lost                      : {record.total_views}")
    print(f"recovered from other replicas   : {record.views_from_memory}")
    print(f"recovered from disk only        : {record.views_from_disk}")
    print(f"in-memory recovery fraction     : {record.views_from_memory / record.total_views:.0%}")

    assert record.total_views == held
    assert strategy.tables.used[crashed] == 0
    assert all(strategy.has_any_replica(user) for user in graph.users)
    persistent.verify_integrity()
    print("every view is available again; no data was lost.")


if __name__ == "__main__":
    main()
