"""Command-line experiment runner.

Usage::

    python -m repro list
    python -m repro run figure3c --profile ci
    python -m repro run all --profile laptop --jobs 4
    python -m repro figure7 --no-cache    # shorthand for "run figure7 ..."
    python -m repro run all --profile laptop --report EXPERIMENTS.md

Every experiment prints the paper-style rows/series to stdout, followed by
the table of claims the paper makes about them (name, paper reference,
verdict, measured value, bound); the exit status is 1 when any claim
failed.  ``--report PATH`` also writes figures and claim tables, with the
commit, profile, seed and machine they were taken on, to one Markdown file
— how the committed EXPERIMENTS.md is produced.  ``--jobs N`` fans each
experiment's run grid out over N worker processes (results are identical
to serial execution); completed runs land in an on-disk cache keyed by the
run's content hash, so re-running an experiment only executes what changed.  ``--no-cache``
bypasses the cache; the cache directory and default worker count come from
the :class:`~repro.config.ExperimentProfile`.  Each run replays in one
process; ``--jobs`` is the only parallelism.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from .config import ExperimentProfile
from .experiments import report
from .experiments.registry import EXPERIMENTS, get_experiment
from .runtime.executor import Progress, ResultCache, RuntimeExecutor


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="dynasore-repro",
        description="Reproduce the tables and figures of the DynaSoRe paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (e.g. figure3c) or 'all'")
    run_parser.add_argument(
        "--profile",
        default="ci",
        choices=["ci", "laptop", "paper"],
        help="scale profile (default: ci)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for run grids (default: the profile's jobs)",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache directory (default: the profile's cache_dir)",
    )
    run_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write figures, claim verdicts and provenance to this Markdown file",
    )
    return parser


def _progress_printer(stream) -> callable:
    """Progress callback writing one status line per completed run."""

    def show(progress: Progress) -> None:
        print(f"  [{progress.describe()}]", file=stream)

    return show


def build_executor(
    profile: ExperimentProfile,
    jobs: int | None = None,
    no_cache: bool = False,
    cache_dir: str | None = None,
    progress_stream=None,
) -> RuntimeExecutor:
    """Executor configured from a profile plus CLI overrides."""
    cache = None
    if not no_cache:
        cache = ResultCache(cache_dir if cache_dir is not None else profile.cache_dir)
    progress = (
        _progress_printer(progress_stream) if progress_stream is not None else None
    )
    return RuntimeExecutor(
        jobs=jobs if jobs is not None else profile.jobs,
        cache=cache,
        progress=progress,
    )


def provenance(profile: ExperimentProfile) -> dict[str, str]:
    """Commit, profile, seed and machine a report was taken on.

    The commit is that of the checkout this package was imported from,
    with ``-dirty`` appended when tracked files differ from it.
    """
    try:
        commit = subprocess.run(
            ["git", "-C", str(Path(__file__).parent), "describe", "--always", "--dirty",
             "--abbrev=12", "--exclude=*"],
            capture_output=True, text=True, check=False,
        ).stdout.strip() or "unknown"  # fmt: skip
    except OSError:
        commit = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cluster = profile.cluster
    users = ", ".join(f"{name} {count:,}" for name, count in profile.users.items())
    sweep = ", ".join(f"{point:g}%" for point in profile.memory_sweep)
    return {
        "commit": commit,
        "profile": (
            f"`{profile.name}`: {cluster.intermediate_switches} x "
            f"{cluster.racks_per_intermediate} x {cluster.machines_per_rack} tree "
            f"({profile.flat_machines} machines flat); users {users}; "
            f"{profile.synthetic_days:g} synthetic and {profile.trace_days:g} trace days; "
            f"memory sweep {sweep}; {profile.flash_repetitions} flash repetitions"
        ),
        "seed": str(profile.seed),
        "machine": (
            f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``dynasore-repro`` command."""
    if argv is None:
        argv = sys.argv[1:]
    # ``python -m repro figure7`` is shorthand for ``python -m repro run figure7``.
    if argv and (argv[0] in EXPERIMENTS or argv[0] == "all"):
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")

    if args.command == "list":
        for identifier, experiment in sorted(EXPERIMENTS.items()):
            print(f"{identifier:10s}  {experiment.description}")
        return 0

    profile = ExperimentProfile.by_name(args.profile)
    executor = build_executor(
        profile,
        jobs=args.jobs,
        no_cache=args.no_cache,
        cache_dir=args.cache_dir,
        progress_stream=sys.stderr,
    )
    identifiers = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    sections = []
    failed: list[str] = []
    for identifier in identifiers:
        try:
            experiment = get_experiment(identifier)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        started = time.time()
        print(
            f"== {identifier}: {experiment.description} "
            f"(profile={profile.name}, jobs={executor.jobs}) =="
        )
        result = experiment.run(profile, executor=executor)
        figure = experiment.renderer(result)
        claims = experiment.claims(result)
        print(figure)
        print(report.render_claims(claims))
        print(f"-- completed in {time.time() - started:.1f}s --\n")
        sections.append((identifier, experiment.description, figure, claims))
        failed.extend(f"{identifier}:{claim.name}" for claim in claims if not claim.holds)
    cache = executor.cache
    if cache is not None and cache.unreadable:
        note = f"{cache.unreadable} unreadable entries in {cache.directory} were recomputed"
        print(f"warning: {note}", file=sys.stderr)
    if args.report is not None:
        command = (
            f"python -m repro run {args.experiment} --profile {profile.name} "
            f"--report {args.report}"
        )
        text = report.render_report(command, provenance(profile), sections)
        Path(args.report).write_text(text + "\n")
    if failed:
        print(f"claims failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
