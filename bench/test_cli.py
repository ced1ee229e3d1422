"""End-to-end CLI rungs of the bench ladder, timed with pytest-benchmark.

Each rung is one in-process `posetblock.cli.main` call, with its config
file already written and stdout captured, so it times what a CLI call
costs past interpreter start-up: parsing the arguments and the config,
the count and writing the artifact.  Run them from the repository root:

    python -m pytest bench/test_cli.py --benchmark-json=out.json

The table rungs use an 8-element fence with blocks 1, 2 repeating and Lee
weight at q = 31, so the table has 8 * 15 + 1 = 121 entries; the code
rungs use the paper's Example 6.9 (Z_7^8, a dimension-1 code).  The
package holds no cache; on an older tree whose block_class_size has an
lru cache, that cache is cleared before every round, as a fresh process
starts with it empty.  Like the other bench modules, a rung calls
only the public API, so -o pythonpath=TREE/src times another tree, and
each rung stores the process's peak RSS (MiB) in its extra_info.

The cold rungs time what a CLI process costs from its start: each round
starts a fresh interpreter that imports posetblock.cli from the tree under
test (the src directory the package was imported from) and makes one
main() call.  They store the child's largest peak RSS over the rounds,
which the child reads from its own VmHWM (Linux /proc) as it exits.  Not
RUSAGE_CHILDREN: its ru_maxrss also counts the resident memory of the
process that forked the child, here the whole pytest process.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import posetblock as pb
from posetblock import cli

FENCE8 = {
    "q": 31,
    "poset": {"n": 8, "relations": [[i, i + 1] if i % 2 else [i + 1, i] for i in range(1, 8)]},
    "pi": [1, 2] * 4,
    "weight": "lee",
}
EX69 = {
    "q": 7,
    "poset": {"n": 5, "relations": [[1, 4], [2, 4], [3, 5]]},
    "pi": [3, 2, 1, 1, 1],
    "weight": "lee",
    "code": {"generator": [[0, 0, 0, 0, 0, 0, 1, 1]]},
}

# rung: (command, config, extra flags, rounds)
RUNGS = {
    "distribution_fence8_q31": ("distribution", FENCE8, [], 300),
    "ball_fence8_q31": ("ball", FENCE8, [], 300),
    "check_code_ex69": ("check-code", EX69, [], 300),
    "oracle_compare_ex69": ("oracle-compare", EX69, ["--threads", "1"], 10),
}


@pytest.mark.parametrize("rung", list(RUNGS))
def test_rung(benchmark, tmp_path, rung):
    command, config, flags, rounds = RUNGS[rung]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), *flags]

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    code, out = benchmark.pedantic(
        call,
        setup=getattr(pb.block_class_size, "cache_clear", None),
        rounds=rounds,
        iterations=1,
        warmup_rounds=1,
    )
    assert code == 0
    payload = json.loads(out)
    if command == "distribution":
        assert len(payload["counts"]) == 121
    elif command == "ball":
        assert payload["volumes"][-1]["volume"] == str(31**12)
    elif command == "oracle-compare":
        assert payload["match"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    benchmark.extra_info["peak_rss_mib"] = round(peak, 1)


# cold rung: (command, config, rounds), each round one fresh interpreter
COLD_RUNGS = {
    "cold_distribution_fence8_q31": ("distribution", FENCE8, 20),
    "cold_check_code_ex69": ("check-code", EX69, 20),
}
COLD_MAIN = """
import sys
from posetblock import cli
code = cli.main(sys.argv[1:])
try:  # the peak of this process image alone, in KiB
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")).split()[1], file=sys.stderr)
except OSError:
    pass
sys.exit(code)
"""


@pytest.mark.parametrize("rung", list(COLD_RUNGS))
def test_cold_rung(benchmark, tmp_path, rung):
    command, config, rounds = COLD_RUNGS[rung]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(config))
    src = Path(pb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", COLD_MAIN, command, "--config", str(path)]
    peaks_kib = []

    def call():
        done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        peaks_kib.extend(int(line) for line in done.stderr.split())
        return done

    done = benchmark.pedantic(call, rounds=rounds, iterations=1, warmup_rounds=1)
    payload = json.loads(done.stdout)
    if command == "distribution":
        assert len(payload["counts"]) == 121
    else:
        assert payload["k"] == 1
    if peaks_kib:
        benchmark.extra_info["child_peak_rss_mib"] = round(max(peaks_kib) / 1024, 1)
