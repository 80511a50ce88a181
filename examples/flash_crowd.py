"""Flash crowd: a user suddenly becomes popular, then fades again.

This is the paper's Figure 5 scenario (section 4.6): at a point in time a
user gains a burst of random followers who start reading her view from all
over the cluster; later they unfollow.  The example tracks how DynaSoRe
grows and then evicts replicas of the hot view, prints the timeline and
checks its shape: one replica before the event, more during it, fewer again
at the end.

Run with::

    python examples/flash_crowd.py
"""

from __future__ import annotations

import random

from repro import ClusterSpec, SimulationConfig, TreeTopology, facebook_like
from repro.constants import DAY
from repro.core.engine import DynaSoRe
from repro.simulator.engine import ClusterSimulator
from repro.workload.flash import inject_flash_stream, plan_flash_event
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


def main() -> None:
    graph = facebook_like(users=400, seed=7)
    topology = TreeTopology(
        ClusterSpec(intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4)
    )

    # Two simulated days of background traffic.
    base_log = SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=2.0, seed=7)
    ).stream()

    # The flash event: 100 new followers between day 0.5 and day 1.4.
    rng = random.Random(7)
    event = plan_flash_event(graph, rng, followers=100, start_day=0.5, end_day=1.4)
    log = inject_flash_stream(base_log, event, reads_per_follower_per_day=6.0, seed=7)
    print(f"user {event.target_user} gains {len(event.new_followers)} followers at day 0.5")

    simulator = ClusterSimulator(
        topology,
        graph,
        DynaSoRe(initializer="hmetis", seed=7),
        SimulationConfig(extra_memory_pct=30.0, seed=7),
    )
    simulator.track_view(event.target_user)
    result = simulator.run(log)

    timeline = result.tracked_views[event.target_user]
    print("\n  day   replicas   reads/replica (per 10 min)")
    step = max(1, len(timeline.replica_counts) // 24)
    for (time, count), (_, reads) in list(
        zip(timeline.replica_counts, timeline.reads_per_replica)
    )[::step]:
        marker = "  <- flash event active" if event.start_time <= time <= event.end_time else ""
        print(f"  {time / DAY:4.2f}   {count:8d}   {reads:13.2f}{marker}")

    before = {count for time, count in timeline.replica_counts if time < event.start_time}
    during = [
        count
        for time, count in timeline.replica_counts
        if event.start_time <= time <= event.end_time
    ]
    peak = max(count for _, count in timeline.replica_counts)
    final = timeline.replica_counts[-1][1]
    print(f"\npeak replicas during the event : {peak}")
    print(f"replicas at the end of the run : {final}")
    assert before == {1}, f"replicas before the event: {sorted(before)}"
    assert max(during) == peak > 1, "the replica peak falls outside the event"
    assert final < peak, "the hot view kept its peak replication after the event"


if __name__ == "__main__":
    main()
