"""Claims — the shapes the paper asserts, as data.

Every experiment module defines one ``*_claims`` function next to its
runner: it takes the runner's own result object and returns one
:class:`Claim` per shape its docstring lists under "Expected shape".  A
claim states its bound and carries the value that was measured against it,
so the command-line runner, EXPERIMENTS.md and the test-suite all read the
same verdict and none of them holds a tolerance of its own.

A claim evaluated on a result that measured nothing (a zero-event
workload, a one-point sweep, a view that was never sampled) does not hold
and reports ``measured=None``; building a claim never raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    # Normalised values are quotients of float sums: equal up to rounding.
    "=": lambda measured, limit: abs(measured - limit) <= 1e-9,
}


@dataclass(frozen=True)
class Claim:
    """One asserted shape, checked against one experiment result."""

    #: Stable identifier within the experiment; per-point claims end in
    #: ``@<point>`` (``dynasore_below_spar@150``).
    name: str
    #: Where the paper states it (figure, table or section).
    paper_ref: str
    holds: bool
    #: The value compared against the bound; None when nothing was measured.
    measured: float | None
    #: The bound as text, relation included (``< 0.319 (SPAR)``).
    bound: str


def format_value(value: float | None) -> str:
    """Counts as integers, ratios to three decimals, a missing value as n/a."""
    if value is None:
        return "n/a"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def compare(
    name: str,
    paper_ref: str,
    measured: float | None,
    relation: str,
    limit: float | None,
    what: str = "",
) -> Claim:
    """The claim ``measured <relation> limit``; a missing side never holds.

    ``what`` says where the limit comes from (``SPAR``, ``Random + 0.05``)
    and is appended to the bound text.
    """
    bound = f"{relation} {format_value(limit)}" + (f" ({what})" if what else "")
    if measured is None or limit is None:
        return Claim(name, paper_ref, False, None, bound)
    return Claim(name, paper_ref, _RELATIONS[relation](measured, limit), measured, bound)


def within(
    name: str, paper_ref: str, measured: float | None, low: float, high: float
) -> Claim:
    """The claim ``low <= measured <= high``."""
    bound = f"in [{format_value(low)}, {format_value(high)}]"
    if measured is None:
        return Claim(name, paper_ref, False, None, bound)
    return Claim(name, paper_ref, low <= measured <= high, measured, bound)


def ratio(numerator: float | None, denominator: float | None) -> float | None:
    """``numerator / denominator``, or None when either side measured nothing."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def mean(values: list[float]) -> float | None:
    """Arithmetic mean, or None of an empty sample."""
    return sum(values) / len(values) if values else None


def shifted(value: float | None, offset: float) -> float | None:
    """``value + offset`` that keeps a missing value missing."""
    return None if value is None else value + offset


def scaled(value: float | None, factor: float) -> float | None:
    """``value * factor`` that keeps a missing value missing."""
    return None if value is None else value * factor


__all__ = [
    "Claim",
    "compare",
    "format_value",
    "mean",
    "ratio",
    "scaled",
    "shifted",
    "within",
]
