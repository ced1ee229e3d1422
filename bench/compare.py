"""Time the rungs of bench/test_perfectness.py on two source trees and write
one JSON holding both.

    python bench/compare.py --parent OLD_TREE --change NEW_TREE \
        --runs 5 --out BENCH.json

A tree is a checkout with the package under src/.  Every rung runs in its
own pytest process, once per tree and run, so the peak RSS it records is
its own; the two trees alternate, and which goes first flips each run.
Run it from the repository root that holds bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

MODULE = "bench/test_perfectness.py"


def _pytest(tree: Path, *args: str) -> str:
    """Run pytest on the module with tree's src/ first on the import path."""
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-o", f"pythonpath={tree / 'src'}", *args,
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    return done.stdout


def _rungs(tree: Path) -> list[str]:
    """The rung names, read from pytest's collection of the module."""
    listing = _pytest(tree, "--collect-only", MODULE)
    return [line.split("[", 1)[1][:-1] for line in listing.splitlines() if "::" in line]


def _run(tree: Path, rung: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rung.json"
        _pytest(tree, f"{MODULE}::test_rung[{rung}]", f"--benchmark-json={out}")
        (bench,) = json.loads(out.read_text())["benchmarks"]
    stats = bench["stats"]
    return {
        "median_s": stats["median"],
        "min_s": stats["min"],
        "max_s": stats["max"],
        "rounds": stats["rounds"],
        "peak_rss_mib": bench["extra_info"]["peak_rss_mib"],
    }


def _commit(tree: Path) -> str:
    """The tree's commit, marked -dirty when it has uncommitted changes."""
    head = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    )
    return head.stdout.strip() or "unknown"


def _cpu() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.machine()
    names = [line.split(":", 1)[1] for line in lines if line.startswith("model name")]
    name = names[0].strip() if names else platform.machine()
    return f"{name}, {os.cpu_count()} cpus"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    rungs = {rung: {"parent": [], "change": []} for rung in _rungs(args.change)}
    for run in range(args.runs):
        order = ["parent", "change"] if run % 2 == 0 else ["change", "parent"]
        for rung, sides in rungs.items():
            for side in order:
                sides[side].append(_run(trees[side], rung))
    summary = {
        rung: {
            f"{side}_{name}": round(agg(run[field] for run in runs), 6)
            for side, runs in sides.items()
            for name, field, agg in (
                ("median_s", "median_s", statistics.median),
                ("peak_rss_mib", "peak_rss_mib", max),
            )
        }
        for rung, sides in rungs.items()
    }
    report = {
        "module": MODULE,
        "runs": args.runs,
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "machine": {
            "cpu": _cpu(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "summary": summary,
        "rungs": rungs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
