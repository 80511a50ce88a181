"""Experiment harness regenerating every table and figure of the paper."""

from .claims import Claim
from .datasets import DatasetRow, PAPER_TABLE1, run_table1
from .figure2 import DailyActivity, run_figure2, trace_summary
from .figure3 import (
    MemorySweepResult,
    run_figure3a,
    run_figure3b,
    run_figure3c,
    run_figure3d,
    run_memory_sweep,
)
from .figure4 import TrafficOverTime, run_figure4
from .figure5 import FlashEventOutcome, run_figure5
from .figure6 import ConvergenceResult, run_convergence, run_figure6a, run_figure6b
from .registry import EXPERIMENTS, Experiment, get_experiment
from .tables import SwitchTrafficTable, run_table2, run_table3

__all__ = [
    "Claim",
    "ConvergenceResult",
    "DailyActivity",
    "DatasetRow",
    "EXPERIMENTS",
    "Experiment",
    "FlashEventOutcome",
    "MemorySweepResult",
    "PAPER_TABLE1",
    "SwitchTrafficTable",
    "TrafficOverTime",
    "get_experiment",
    "run_convergence",
    "run_figure2",
    "run_figure3a",
    "run_figure3b",
    "run_figure3c",
    "run_figure3d",
    "run_figure4",
    "run_figure5",
    "run_figure6a",
    "run_figure6b",
    "run_memory_sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "trace_summary",
]
