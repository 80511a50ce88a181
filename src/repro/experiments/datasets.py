"""Table 1 — datasets used by the evaluation.

The paper's Table 1 lists the number of users and links of the Twitter,
Facebook and LiveJournal samples.  The reproduction generates scaled
analogues (see :mod:`repro.socialgraph.generators`); this experiment reports
both the paper's original numbers and the generated graphs' statistics so
the scale substitution is explicit.

Expected shape (:func:`dataset_claims`): Twitter is the sparsest graph and
LiveJournal has the most users, as in the paper's table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ExperimentProfile
from ..runtime.executor import RuntimeExecutor
from ..socialgraph.generators import graph_statistics
from .claims import Claim, compare, ratio
from .common import DATASETS, graph_spec

#: Numbers reported in the paper's Table 1.
PAPER_TABLE1 = {
    "twitter": {"users": 1_700_000, "links": 5_000_000},
    "facebook": {"users": 3_000_000, "links": 47_000_000},
    "livejournal": {"users": 4_800_000, "links": 69_000_000},
}


@dataclass(frozen=True)
class DatasetRow:
    """One row of the reproduced Table 1."""

    dataset: str
    paper_users: int
    paper_links: int
    generated_users: int
    generated_links: int
    avg_out_degree: float


def run_table1(
    profile: ExperimentProfile, executor: RuntimeExecutor | None = None
) -> list[DatasetRow]:
    """Generate every dataset at the profile's scale and summarise it.

    No simulation runs; ``executor`` is accepted for registry uniformity.
    """
    del executor
    rows: list[DatasetRow] = []
    for dataset in DATASETS:
        graph = graph_spec(profile, dataset).build()
        stats = graph_statistics(graph)
        rows.append(
            DatasetRow(
                dataset=dataset,
                paper_users=PAPER_TABLE1[dataset]["users"],
                paper_links=PAPER_TABLE1[dataset]["links"],
                generated_users=int(stats["users"]),
                generated_links=int(stats["edges"]),
                avg_out_degree=stats["avg_out_degree"],
            )
        )
    return rows


def dataset_claims(rows: list[DatasetRow]) -> list[Claim]:
    """The orderings of Table 1 that the scaled graphs must keep."""
    ref = "table 1"
    density = {row.dataset: ratio(row.generated_links, row.generated_users) for row in rows}
    users = {row.dataset: row.generated_users for row in rows}
    other_densities = [v for name, v in density.items() if name != "twitter" and v is not None]
    other_sizes = [count for name, count in users.items() if name != "livejournal"]
    next_sparsest = min(other_densities, default=None)
    next_largest = max(other_sizes, default=None)
    return [
        compare(
            "twitter_sparsest", ref, density.get("twitter"), "<", next_sparsest, "links per user"
        ),
        compare("livejournal_most_users", ref, users.get("livejournal"), ">=", next_largest),
    ]


__all__ = ["DatasetRow", "PAPER_TABLE1", "dataset_claims", "run_table1"]
