"""Workload substrate: columnar event streams, trace files, generators.

The data path is the chunked struct-of-arrays pipeline of
:mod:`repro.workload.stream`; small workloads are hand-built with
:meth:`EventStream.from_rows` and read back event by event with
:meth:`EventStream.rows`.
"""

from .flash import (
    FlashEventSpec,
    flash_event_stream,
    inject_flash_stream,
    plan_flash_event,
)
from .io import read_trace, trace_content_hash, write_trace
from .stream import (
    CHUNK_EVENTS,
    EventChunk,
    EventStream,
    StreamStats,
    events_per_day,
    merge_streams,
)
from .synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from .trace import NewsActivityTraceConfig, NewsActivityTraceGenerator

__all__ = [
    "CHUNK_EVENTS",
    "EventChunk",
    "EventStream",
    "FlashEventSpec",
    "NewsActivityTraceConfig",
    "NewsActivityTraceGenerator",
    "StreamStats",
    "SyntheticWorkloadConfig",
    "SyntheticWorkloadGenerator",
    "events_per_day",
    "flash_event_stream",
    "inject_flash_stream",
    "merge_streams",
    "plan_flash_event",
    "read_trace",
    "trace_content_hash",
    "write_trace",
]
