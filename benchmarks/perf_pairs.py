"""Compare two commits on the serving benchmark over alternating pairs of runs.

Usage (from the repository root)::

    python benchmarks/perf_pairs.py --parent HEAD~1 --change HEAD \\
        --workload estimate --pairs 10 --claim estimate_per_s

Each ref (any tree-ish: a commit, a branch, or ``git write-tree`` of the
staged index) is exported with ``git archive`` into a temporary directory,
so nothing is fetched and no worktree is made.  Pair ``i`` runs the
benchmark command of ``BENCHMARK.json`` once in each export with the same
``--seed`` (``--first-seed + i``) and the ``run_seconds`` the benchmark
fixes; the parent runs first in even pairs and the change in odd ones, so
host drift does not favour one side.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither), the ratio of the medians and a verdict:

* the claimed metric (``--claim``) is ``improved`` when the change won at
  least 9 of every 10 pairs and its median is better than the parent's by
  more than the parent's interquartile range, and ``not met`` otherwise;
* any other metric is ``unresolved`` when the parent's interquartile range
  exceeds the metric's bound (relative to its median), unless every change
  run beats every parent run; else ``worse`` when the change's median is
  worse than the parent's by more than the bound, and ``within`` when not.

It also prints the failed operations per side.  The script reads
``BENCHMARK.json`` and runs the benchmark; it changes neither.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Sequence
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


# ----------------------------------------------------------------------
# statistics and verdicts
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of the runs (inclusive method; one run is its own spread)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, better: str) -> bool:
    """``a`` reads better than ``b``."""
    return a > b if better == "higher" else a < b


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change's run read strictly better than the parent's."""
    return sum(_better(c, p, better) for p, c in zip(parent, change))


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def worse_by(parent_median: float, change_median: float, better: str) -> float:
    """How much worse the change's median is, as a fraction of the parent's (< 0: better)."""
    delta = change_median - parent_median
    return _relative(delta if better == "lower" else -delta, parent_median)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
    claimed: bool = False,
) -> str:
    """The verdict on one metric over paired runs (``parent[i]`` pairs ``change[i]``)."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    if claimed:
        gap = c_median - p_median if better == "higher" else p_median - c_median
        enough_wins = 10 * wins(parent, change, better) >= 9 * len(parent)
        return "improved" if enough_wins and gap > p_q3 - p_q1 else "not met"
    if all(_better(c, p, better) for c in change for p in parent):
        return "within"
    if _relative(p_q3 - p_q1, p_median) > bound:
        return "unresolved"
    if worse_by(p_median, c_median, better) > bound:
        return "worse"
    return "within"


def report(
    runs: dict[str, list[dict[str, Any]]],
    end_to_end: Sequence[dict[str, Any]],
    claim: str | None,
) -> list[str]:
    """The comparison table for one workload's runs, one line per metric."""
    lines = [
        f"{'metric':<20} {'better':<7} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'wins':>6} {'ratio':>7} {'bound':>6}  verdict"
    ]
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in run["metrics"] for side in SIDES for run in runs[side]):
            lines.append(f"{name:<20} not measured in every run")
            continue
        sides = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        cells = []
        for side in SIDES:
            q1, median, q3 = quartiles(sides[side])
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        p_median, c_median = (quartiles(sides[side])[1] for side in SIDES)
        ratio = c_median / p_median if p_median else math.nan
        won = wins(sides["parent"], sides["change"], metric["better"])
        said = verdict(
            sides["parent"], sides["change"], better=metric["better"],
            bound=metric["bound"], claimed=name == claim,
        )
        lines.append(
            f"{name:<20} {metric['better']:<7} {cells[0]:<34} {cells[1]:<34} "
            f"{won:>3}/{len(sides['parent']):<2} {ratio:>7.3f} {metric['bound']:>6}  "
            f"{said}{' (claimed)' if name == claim else ''}"
        )
    for side in SIDES:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        lines.append(f"failed operations, {side}: {failed} of {attempted}")
    return lines


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def export(ref: str, into: Path) -> Path:
    """Extract ``git archive REF`` into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # Python before 3.10.12 / 3.11.4
            tar.extractall(into)
    return into


def run_once(command: Sequence[str], tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One benchmark run in ``tree``; returns its final JSON line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result: dict[str, Any] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if done.returncode != 0 or "metrics" not in result:
        tail = (done.stdout + done.stderr)[-2000:]
        raise SystemExit(f"benchmark run in {tree} failed (exit {done.returncode}):\n{tail}")
    return result


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the reference tree-ish")
    parser.add_argument("--change", required=True, help="the tree-ish under test")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None, help="the end-to-end metric the change claims")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim must be one of {names}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict[str, Any]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as workdir:
        trees = {
            side: export(ref, Path(workdir) / side)
            for side, ref in (("parent", args.parent), ("change", args.change))
        }
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(spec["command"], trees[side], args.workload, seed, seconds)
                runs[side].append(result)
                shown = args.claim or names[0]
                value = result["metrics"].get(shown, {}).get("value", math.nan)
                print(
                    f"pair {pair + 1}/{args.pairs} seed {seed} {side:<6} "
                    f"{shown}={value:.6g} failed={result['failed']}",
                    flush=True,
                )
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {seconds} s runs, "
          f"parent {args.parent}, change {args.change}")
    for line in report(runs, spec["end_to_end"], args.claim):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
