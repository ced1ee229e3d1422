#!/usr/bin/env python3
"""The posetblock benchmark: three seeded workloads driven by one closed-loop caller.

    python3 perfbench/run.py --workload tables|oracle|codes \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root: the package is imported from ./src.

Load model: one process, one caller, closed loop.  A job is one CLI command
(`posetblock.cli.main`, in process) or one library verdict call on one
instance, and the next job starts only when the previous one has returned.
Every job starts with the package's lru caches cleared, as a fresh CLI
process would.  The batch made from the seed is run in whole passes until
another pass would overrun --seconds (at least one pass).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics (see tracing.py), each per
traced pass.  Every output is checked in both modes.

The end-to-end times are given at a fixed machine speed.  The machine this
was built on is shared, and its speed swings by up to 1.6x, in spells from
a second to several minutes long, which no amount of repetition within one
run averages out.  So a fixed pure-Python calibration loop, independent of
the package, runs just before every job, and each job time is divided by
the calibration time next to it and multiplied by CALIBRATION_REF_S; a
job's figure is the median of these over the passes.  The `run` line gives
the unscaled figures and the run's speed factor next to them.

The last line of standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A job that raises, exits non-zero or fails a check counts in
`failed`; `failed / attempted` is the error rate.

--record-digests rewrites digests.json, the committed digest of every job's
output for the default and the confirmation seed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
CONFIRM_SEED = 2  # used only to confirm a claim on inputs it was not tuned on
SETUP_PROBES = 11
# the calibration loop's median time on the 2.1 GHz Xeon vCPU the benchmark
# was built on, in a quiet spell; end-to-end times are reported at this speed
CALIBRATION_REF_S = 2.4e-4


def calibrate() -> int:
    """Fixed interpreter work, independent of the package: the speed probe."""
    acc, seen = 0, {}
    for i in range(2000):
        acc += (i * 7919) % 104729
        seen[i % 97] = acc
    return acc


# --------------------------------------------------------------------------
# output checks: each returns (canonical output for the digest, problems)


def check_distribution(job, text):
    obj = json.loads(text)
    q, N = obj["q"], obj["N"]
    counts = [int(e["count"]) for e in sorted(obj["counts"], key=lambda e: e["r"])]
    problems = []
    if counts[0] != 1 or sum(counts) != q**N:
        problems.append("counts do not start at 1 and sum to q^N")
    for r, want in job.expect.get("A", {}).items():
        if counts[int(r)] != want:
            problems.append(f"A_{r} = {counts[int(r)]}, expected {want}")
    return {"q": q, "N": N, "counts": counts}, problems


def check_ball(job, text):
    obj = json.loads(text)
    q, N = obj["q"], obj["N"]
    vols = [int(e["volume"]) for e in sorted(obj["volumes"], key=lambda e: e["r"])]
    problems = []
    if vols[0] != 1 or vols[-1] != q**N or any(a > b for a, b in zip(vols, vols[1:])):
        problems.append("ball volumes are not non-decreasing from 1 to q^N")
    return {"q": q, "N": N, "volumes": vols}, problems


def check_oracle_compare(job, text):
    obj = json.loads(text)
    problems = [] if obj["match"] is True else [f"oracle mismatch: {obj['diffs']}"]
    return {"q": obj["q"], "N": obj["N"], "match": obj["match"]}, problems


def check_code(job, text):
    obj = json.loads(text)
    m_w, M_w = workloads.weight_bounds(job.config)
    problems = []
    if not m_w * obj["d_ppi"] <= obj["d_pwpi"] <= M_w * obj["d_ppi"]:
        problems.append("d_pwpi outside [m_w d_ppi, M_w d_ppi]")
    if max(obj["singleton_lhs"], obj["ppi_lhs"]) > obj["singleton_rhs"]:
        problems.append("Singleton bound violated")
    for key in ("d_pwpi", "d_ppi"):
        if key in job.expect and obj[key] != job.expect[key]:
            problems.append(f"{key} = {obj[key]}, expected {job.expect[key]}")
    return obj, problems


def check_verdict(job, verdict):
    problems = [] if isinstance(verdict, bool) else [f"verdict {verdict!r} is not a bool"]
    if "verdict" in job.expect and verdict != job.expect["verdict"]:
        problems.append(f"verdict {verdict}, expected {job.expect['verdict']}")
    return {"verdict": verdict}, problems


CHECKS = {
    "distribution": check_distribution,
    "ball": check_ball,
    "oracle-compare": check_oracle_compare,
    "check-code": check_code,
}


# --------------------------------------------------------------------------
# the closed loop


class Bench:
    def __init__(self, jobs: list, paths: dict, expected: dict):
        import posetblock
        import posetblock.cli
        import posetblock.config

        self.pb = posetblock
        self.cli = posetblock.cli
        self.caches = tracing.package_caches()
        self.jobs = jobs
        self.paths = paths
        self.expected = expected
        self.prepared = {}
        for job in jobs:
            cfg = posetblock.config.parse_config(job.config)
            ideal = None
            if job.command == "transversal":
                ideal = posetblock.ideal_closure(cfg.poset, cfg.ideal_members)
            self.prepared[job.id] = (cfg, ideal)
        self.digests = {}
        self.failures = {}
        self.attempted = 0
        self.failed = 0

    def call(self, job):
        """Run one job: (exit code, output, diagnostics)."""
        if job.cli:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main([job.command, "--config", self.paths[job.id], *job.args])
            return rc, out.getvalue(), err.getvalue()
        pb = self.pb
        cfg, ideal = self.prepared[job.id]
        if job.command == "transversal":
            code = pb.construct_I_perfect(cfg.poset, cfg.pi, ideal, cfg.q)
            return 0, pb.is_I_perfect(code, ideal, cfg.pi), ""
        if job.command == "verify_duality":
            return 0, pb.verify_duality(cfg.code, cfg.poset, cfg.pi, cfg.weight), ""
        verdict = getattr(pb, job.command)  # is_r_perfect | is_r_error_correcting
        return 0, verdict(cfg.code, job.args[0], cfg.poset, cfg.pi, cfg.weight), ""

    def clear_caches(self) -> None:
        for fn in self.caches.values():
            fn.cache_clear()

    def warm_up(self) -> None:
        """Run the cheapest job of each command once, untimed and unchecked."""
        cheapest = {}
        for job in self.jobs:
            if job.command not in cheapest or job.work < cheapest[job.command].work:
                cheapest[job.command] = job
        for job in cheapest.values():
            self.clear_caches()
            self.call(job)

    def run_pass(self, tracer=None):
        """One pass over the batch: (wall seconds, per-job latencies, and the
        calibration loop's time before each job; none in a traced pass)."""
        latencies, outcomes, probes = [], [], []
        start = perf_counter()
        for job in self.jobs:
            if tracer:
                tracer.begin_job(job.id, job.dist_kind)
            else:
                t0 = perf_counter()
                calibrate()
                probes.append(perf_counter() - t0)
            self.clear_caches()
            t0 = perf_counter()
            try:
                outcome = self.call(job)
            except Exception:  # the job failed; record it and keep the loop going
                outcome = (None, None, traceback.format_exc(limit=4))
            latencies.append(perf_counter() - t0)
            if tracer:
                tracer.end_job(self.caches)
            outcomes.append(outcome)
        wall = perf_counter() - start
        for job, outcome in zip(self.jobs, outcomes):
            self.check(job, *outcome)
        return wall, latencies, probes

    def check(self, job, rc, output, diagnostics) -> None:
        self.attempted += 1
        problems = []
        if rc is None:
            problems.append("raised " + diagnostics.strip().splitlines()[-1])
        elif rc != 0:
            problems.append(f"exit code {rc}: {diagnostics.strip()[:200]}")
        else:
            try:
                canon, problems = CHECKS.get(job.command, check_verdict)(job, output)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if not problems:
            blob = json.dumps(canon, sort_keys=True).encode()
            digest = hashlib.sha256(blob).hexdigest()[:16]
            if self.digests.setdefault(job.id, digest) != digest:
                problems.append("output differs between passes")
            want = self.expected.get(job.id)
            if want is not None and want != digest:
                problems.append(f"digest {digest} differs from the committed {want}")
        if problems:
            self.failed += 1
            self.failures.setdefault(job.id, problems[0])


def run_passes(bench: Bench, seconds: float, tracer=None, before_pass=None):
    """Whole passes until the next would overrun; with a tracer, untraced and
    traced passes alternate.  Returns (untraced walls, traced walls, and the
    per-job latencies and calibration times of each untraced pass)."""
    bench.warm_up()
    for _ in range(50):
        calibrate()
    plain, traced, latencies, probes = [], [], [], []
    begin = perf_counter()
    while True:
        if before_pass:
            before_pass()
        wall, lat, cal = bench.run_pass()
        plain.append(wall)
        latencies.append(lat)
        probes.append(cal)
        step = wall
        if tracer:
            tracer.install()
            try:
                wall, _, _ = bench.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            step += wall
        if perf_counter() - begin + step > seconds:
            return plain, traced, latencies, probes


def thread_speedup(bench: Bench) -> float:
    """2-thread over 1-thread sweep rate of oracle_distribution on the batch."""
    took = {1: 0.0, 2: 0.0}
    for i, job in enumerate(bench.jobs):
        cfg, _ = bench.prepared[job.id]
        for threads in (1, 2) if i % 2 == 0 else (2, 1):
            t0 = perf_counter()
            bench.pb.oracle_distribution(cfg.poset, cfg.pi, cfg.weight, threads=threads)
            took[threads] += perf_counter() - t0
    return took[1] / took[2]


def setup_probe(src: Path, config_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src), str(config_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def write_configs(jobs: list, directory: Path) -> dict:
    paths = {}
    for job in jobs:
        path = directory / f"{job.id}.json"
        path.write_text(json.dumps(job.config))
        paths[job.id] = str(path)
    return paths


def load_digests(workload: str, seed: int) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})


# --------------------------------------------------------------------------


def record_digests(work_root: Path) -> int:
    record = {}
    for workload in workloads.WORKLOADS:
        for seed in (DEFAULT_SEED, CONFIRM_SEED):
            jobs = workloads.build(workload, seed)
            with tempfile.TemporaryDirectory(dir=work_root) as tmp:
                bench = Bench(jobs, write_configs(jobs, Path(tmp)), {})
                bench.run_pass()
            if bench.failed:
                print(f"{workload} seed {seed}: {bench.failures}", file=sys.stderr)
                return 1
            record.setdefault(workload, {})[str(seed)] = bench.digests
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    src = root / "src"
    if not (src / "posetblock" / "__init__.py").is_file():
        print(f"no package at {src}/posetblock: run from the repository root",
              file=sys.stderr)
        return 2
    work_root = root / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    if args.record_digests:
        return record_digests(work_root)

    jobs = workloads.build(args.workload, args.seed)
    print("manifest " + json.dumps(workloads.manifest(args.workload, args.seed, jobs)))
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        paths = write_configs(jobs, Path(tmp))
        bench = Bench(jobs, paths, load_digests(args.workload, args.seed))
        tracer = tracing.Tracer() if args.trace else None
        setup = []
        if not args.trace:
            setup_probe(src, Path(tmp))  # untimed: brings the files into the page cache

        def probe():
            # spread over the run, so one slow spell does not set the median
            if len(setup) < SETUP_PROBES:
                setup.append(setup_probe(src, Path(tmp)))

        plain, traced, latencies, probes = run_passes(
            bench, args.seconds, tracer, None if args.trace else probe)
        while not args.trace and len(setup) < SETUP_PROBES:
            probe()

    if args.trace:
        passes = len(traced)
        metrics = tracer.metrics(passes)
        speedup = thread_speedup(bench) if args.workload == "oracle" else 0.0
        metrics["oracle.thread_speedup"] = (speedup, "ratio")
        metrics["trace.overhead"] = (sum(traced) / sum(plain) - 1, "ratio")
        spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print("trace " + json.dumps({
            "traced_passes": passes,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(root)),
            "target_layer_share": round(tracer.target_seconds(args.workload) / sum(traced), 4),
        }))
    else:
        # each job time over the calibration time just before it: the
        # machine's slow spells move both, so the ratio holds still; a job's
        # figure is the median of its ratios over the passes
        per_job = [
            statistics.median(t / c for t, c in zip(times, cals)) * CALIBRATION_REF_S
            for times, cals in zip(zip(*latencies), zip(*probes))
        ]
        unscaled = [statistics.median(t) for t in zip(*latencies)]
        calibration = statistics.median(c for cals in probes for c in cals)
        speed = CALIBRATION_REF_S / calibration
        p90 = statistics.quantiles(per_job, n=10)[8]
        raw = {
            "jobs_per_s": len(unscaled) / sum(unscaled),
            "job_p50_s": statistics.median(unscaled),
            "job_p90_s": statistics.quantiles(unscaled, n=10)[8],
            "setup_s": statistics.median(setup),
        }
        metrics = {
            "jobs_per_s": (len(per_job) / sum(per_job), "jobs/s"),
            "job_p50_s": (statistics.median(per_job), "s"),
            "job_p90_s": (p90, "s"),
            "setup_s": (raw["setup_s"] * speed, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        print("run " + json.dumps({
            "passes": len(plain),
            "pass_s": [round(w, 3) for w in plain],
            "jobs": len(per_job),
            "beyond_p90": sum(1 for x in per_job if x > p90),
            "error_rate": bench.failed / bench.attempted,
            "calibration_s": calibration,
            "speed_factor": speed,
            "unscaled": raw,
            "setup_probes_s": [round(t, 4) for t in setup],
        }))
    for job_id, problem in sorted(bench.failures.items())[:20]:
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
