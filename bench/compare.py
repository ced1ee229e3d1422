"""Time the rungs of every bench/test_*.py module on two source trees and
write one JSON holding both.

    python bench/compare.py --parent OLD_TREE --change NEW_TREE \
        --runs 5 --out BENCH.json

A tree is a checkout with the package under src/.  Every rung runs in its
own pytest process, once per tree and run, so the peak RSS it records is
its own; the two trees alternate, and which goes first flips each run.
Run it from the repository root that holds bench/.  A rung is named
module/rung, e.g. perfectness/chain_r3 for test_rung[chain_r3] in
bench/test_perfectness.py; its extra_info figures are kept per run, and
the summary takes their median (the peak RSS, their max).  Each tree is
named by its git describe and by a sha256 of its src/**/*.py, and its
src/posetblock/*.py line count is kept beside the numbers.  Every
extra_info figure must be a number: a run that stores anything else stops
the set at once.  The JSON is written again after every completed run,
with "runs" the runs done so far and "runs_planned" the --runs asked for,
so a set cut short keeps the runs it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent


def _modules() -> list[str]:
    return sorted(f"bench/{path.name}" for path in BENCH.glob("test_*.py"))


def _pytest(tree: Path, *args: str) -> str:
    """Run pytest with tree's src/ first on the import path."""
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


def _rungs(tree: Path) -> dict[str, str]:
    """{module/rung: pytest node id}, read from pytest's collection of every module."""
    listing = _pytest(tree, "--collect-only", *_modules())
    rungs = {}
    for line in listing.splitlines():
        if "::" in line:
            module = line.split("::", 1)[0].removeprefix("bench/test_").removesuffix(".py")
            rungs[f"{module}/{line.split('[', 1)[1][:-1]}"] = line
    return rungs


def _run(tree: Path, node: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rung.json"
        _pytest(tree, node, f"--benchmark-json={out}")
        (bench,) = json.loads(out.read_text())["benchmarks"]
    bad = {
        field: value
        for field, value in bench["extra_info"].items()
        if isinstance(value, bool) or not isinstance(value, (int, float))
    }
    if bad:
        raise SystemExit(f"{node}: extra_info figures must be numbers, got {bad}")
    stats = bench["stats"]
    return {
        "median_s": stats["median"],
        "min_s": stats["min"],
        "max_s": stats["max"],
        "rounds": stats["rounds"],
        **bench["extra_info"],
    }


def _summary(sides: dict) -> dict:
    """Per side, the median of the run medians and of each extra_info
    figure, and the largest peak RSS."""
    out = {}
    for side, runs in sides.items():
        out[f"{side}_median_s"] = round(statistics.median(r["median_s"] for r in runs), 6)
        for field in runs[0]:
            if field in ("median_s", "min_s", "max_s", "rounds"):
                continue
            agg = max if field == "peak_rss_mib" else statistics.median
            out[f"{side}_{field}"] = round(agg(r[field] for r in runs), 6)
    return out


def _commit(tree: Path) -> str:
    """The tree's commit, marked -dirty when it has uncommitted changes."""
    head = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    )
    return head.stdout.strip() or "unknown"


def _src_sha256(tree: Path) -> str:
    """sha256 of the tree's src/**/*.py, each file's path under src/ and its
    bytes in path order; it names a tree that git describe cannot, such as a
    git archive export."""
    src = tree / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _src_lines(tree: Path) -> int:
    """The lines of the tree's src/posetblock/*.py: wc -l's total."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src/posetblock").glob("*.py"))


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
    nodes = _rungs(args.change)
    rungs = {rung: {"parent": [], "change": []} for rung in nodes}
    report = {
        "modules": _modules(),
        "runs": 0,
        "runs_planned": args.runs,
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "src_sha256": {side: _src_sha256(tree) for side, tree in trees.items()},
        "src_lines": {side: _src_lines(tree) for side, tree in trees.items()},
        "machine": {
            "cpu": _cpu(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "summary": {},
        "rungs": rungs,
    }
    for run in range(args.runs):
        order = ["parent", "change"] if run % 2 == 0 else ["change", "parent"]
        for rung, sides in rungs.items():
            for side in order:
                sides[side].append(_run(trees[side], nodes[rung]))
        report["runs"] = run + 1
        report["summary"] = {rung: _summary(sides) for rung, sides in rungs.items()}
        partial = args.out.with_name(args.out.name + ".partial")
        partial.write_text(json.dumps(report, indent=1) + "\n")
        partial.replace(args.out)


if __name__ == "__main__":
    main()
