"""Drive a 1M-event workload through the simulator under a fixed memory budget.

The workload layer is a chunked, columnar pipeline
(:mod:`repro.workload.stream`): events live in ~64k-event struct-of-arrays
chunks produced lazily by the generators, so replaying a million events
never materialises a million objects.  The example

1. generates a 1M-event synthetic workload as a stream and measures the
   peak workload memory with ``tracemalloc`` (a few MB — one chunk at a
   time), enforcing a hard budget;
2. saves the stream to a binary trace file, reads it back chunk by chunk,
   and replays it through the cluster simulator — showing that a saved trace
   replays byte-identically to the generator's stream;
3. prints end-to-end events/sec for the replay.

Run with::

    python examples/streaming_workload.py [--events 1000000]
"""

from __future__ import annotations

import argparse
import gc
import pickle
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro.config import FlatClusterSpec, SimulationConfig
from repro.runtime.spec import build_strategy
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import dataset_preset, generate_social_graph
from repro.topology.flat import FlatTopology
from repro.workload import read_trace, trace_content_hash, write_trace
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator

#: The stream pipeline must stay inside this workload memory budget, no
#: matter how many events flow through it.
MEMORY_BUDGET_MB = 16.0

USERS = 2000
EVENTS_PER_USER_PER_DAY = 5.0  # one write + four reads


def build_generator(events: int) -> SyntheticWorkloadGenerator:
    graph = generate_social_graph(dataset_preset("twitter", users=USERS), seed=7)
    days = events / (USERS * EVENTS_PER_USER_PER_DAY)
    return SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=days, seed=7)
    )


def measure_stream_memory(generator: SyntheticWorkloadGenerator) -> None:
    """Generate + consume the full stream under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    started = time.perf_counter()
    events = sum(len(chunk) for chunk in generator.stream().chunks())
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(
        f"stream:       {events:>9,} events, peak {peak / 1e6:6.1f} MB, "
        f"{events / elapsed:>9,.0f} events/s generated"
    )
    if peak / 1e6 > MEMORY_BUDGET_MB:
        raise SystemExit(
            f"stream peak {peak / 1e6:.1f} MB exceeded the "
            f"{MEMORY_BUDGET_MB:.0f} MB budget"
        )


def replay_from_trace_file(generator: SyntheticWorkloadGenerator) -> None:
    """Save the stream, read it back chunk by chunk, replay both identically."""

    def simulator() -> ClusterSimulator:
        return ClusterSimulator(
            FlatTopology(FlatClusterSpec(machines=12)),
            generator.graph.copy(),
            build_strategy("random", 7),
            SimulationConfig(extra_memory_pct=0.0, seed=7),
        )

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "workload.trace"
        written = write_trace(path, generator.stream())
        print(
            f"trace file:   {written:,} events, {path.stat().st_size / 1e6:.1f} MB "
            f"on disk, sha256 {trace_content_hash(path)[:12]}…"
        )

        started = time.perf_counter()
        from_file = simulator().run(read_trace(path))
        elapsed = time.perf_counter() - started
        print(
            f"replay:       {from_file.requests_executed:,} events in "
            f"{elapsed:.1f}s = {from_file.requests_executed / elapsed:,.0f} events/s "
            f"(trace read chunk by chunk)"
        )

        from_stream = simulator().run(generator.stream())
        identical = pickle.dumps(from_file) == pickle.dumps(from_stream)
        print(f"identical to generator stream replay: {identical}")
        if not identical:
            raise SystemExit("trace-file replay diverged from the generator stream")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=1_000_000)
    arguments = parser.parse_args()

    generator = build_generator(arguments.events)
    print(f"1M-event streaming workload demo ({arguments.events:,} events)\n")
    measure_stream_memory(generator)
    replay_from_trace_file(generator)


if __name__ == "__main__":
    main()
