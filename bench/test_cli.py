"""End-to-end CLI rungs of the bench ladder, timed with pytest-benchmark.

Each rung is one in-process `posetblock.cli.main` call, with its config
file already written and stdout captured, so it times what a CLI call
costs past interpreter start-up: parsing the arguments and the config,
the count and writing the artifact.  Run them from the repository root:

    python -m pytest bench/test_cli.py --benchmark-json=out.json

The table rungs use an 8-element fence with blocks 1, 2 repeating and Lee
weight at q = 31, so the table has 8 * 15 + 1 = 121 entries; the code
rungs use the paper's Example 6.9 (Z_7^8, a dimension-1 code).  The lru
cache of block class sizes is cleared before every round, as a fresh
process starts with it empty.  Like the other bench modules, a rung calls
only the public API, so -o pythonpath=TREE/src times another tree, and
each rung stores the process's peak RSS (MiB) in its extra_info.
"""

from __future__ import annotations

import io
import json
import resource
from contextlib import redirect_stdout

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
        setup=pb.block_class_size.cache_clear,
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
