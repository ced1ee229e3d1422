"""End-to-end CLI behavior: the grammar, exit codes, stdout schemas, the mismatch path."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from itertools import accumulate
from pathlib import Path

import pytest

import posetblock as pb
from posetblock import cli
from posetblock.cli import main
from posetblock.config import parse_config
from conftest import fence

EX45 = {
    "q": 7,
    "poset": {"n": 5, "relations": [[1, 2]]},
    "pi": [2, 3, 4, 2, 2],
    "weight": "lee",
}
EX69 = {
    "q": 7,
    "poset": {"n": 5, "relations": [[1, 4], [2, 4], [3, 5]]},
    "pi": [3, 2, 1, 1, 1],
    "weight": "lee",
    "code": {"generator": [[0, 0, 0, 0, 0, 0, 1, 1]]},
}
EX73 = {
    "q": 7,
    "poset": {"n": 5, "relations": [[i, top] for i in (1, 2, 3) for top in (4, 5)]},
    "pi": [2] * 5,
    "weight": "lee",
}


@pytest.fixture
def cfg45(tmp_path):
    path = tmp_path / "ex45.json"
    path.write_text(json.dumps(EX45))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distribution_example45(cfg45, capsys):
    code, out, _ = run(capsys, "distribution", "--config", cfg45)
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 7 and payload["N"] == 13
    by_r = {e["r"]: e["count"] for e in payload["counts"]}
    assert by_r[3] == "35384"
    assert by_r[14] == "22829377536"
    # decimal-string counts round-trip losslessly
    table = pb.table_from_json_dict(payload)
    assert sum(table.counts) == 7**13


def test_distribution_csv(cfg45, capsys):
    code, out, _ = run(capsys, "distribution", "--config", cfg45, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,count"
    assert lines[4] == "3,35384"


def test_distribution_antichain_hamming(tmp_path, capsys):
    cfg = {
        "q": 3,
        "poset": {"n": 4, "relations": []},
        "pi": [2, 2, 2, 2],
        "weight": "hamming",
    }
    path = tmp_path / "anti.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "distribution", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    from math import comb

    for entry in payload["counts"]:
        assert int(entry["count"]) == comb(4, entry["r"]) * 8 ** entry["r"]


def test_wide_alphabet_one_element(tmp_path, capsys):
    # one block class size per weight class, each two powers of stored
    # prefix sums, so the time is linear in M_w = 50,001
    W = pb.lee_weight(100_003)
    assert W.class_sizes[:3] == (1, 2, 2) and len(W.class_sizes) == 50_002
    path = _write(tmp_path, {"q": W.q, "poset": {"n": 1, "relations": []}, "pi": [1]})
    for command, key, expected in (("distribution", "count", W.class_sizes),
                                   ("ball", "volume", accumulate(W.class_sizes))):
        start = time.perf_counter()
        code, out, _ = run(capsys, command, "--config", path)
        elapsed = time.perf_counter() - start
        assert code == 0
        got = [int(entry[key]) for entry in json.loads(out)[key + "s"]]
        assert got == list(expected), command
        assert elapsed < 1.0, (command, elapsed)


def test_counts_past_the_int_str_digit_limit(tmp_path, capsys):
    # q = 2 and one block of 15,000 symbols: |A_1| = 2^15000 - 1 has 4,516
    # decimal digits, past the interpreter's default limit of 4,300; the
    # tables are written and read without changing that limit
    limit = sys.get_int_max_str_digits()
    big = 2**15000 - 1
    count, volume = str(Decimal(big)), str(Decimal(big + 1))
    assert len(count) == 4516
    path = _write(tmp_path, {"q": 2, "poset": {"n": 1, "relations": []}, "pi": [15000]})
    code, out, _ = run(capsys, "distribution", "--config", path)
    assert code == 0
    payload = json.loads(out)
    assert [e["count"] for e in payload["counts"]] == ["1", count]
    table = pb.table_from_json_dict(payload)
    assert table.counts == (1, big)
    assert pb.table_from_json_dict(pb.table_to_json_dict(table)) == table
    code, out, _ = run(capsys, "distribution", "--config", path, "--format", "csv")
    assert (code, out.splitlines()) == (0, ["r,count", "0,1", "1," + count])
    code, out, _ = run(capsys, "ball", "--config", path)
    assert code == 0
    assert [e["volume"] for e in json.loads(out)["volumes"]] == ["1", volume]
    code, out, _ = run(capsys, "ball", "--config", path, "--radius", "1")
    assert (code, json.loads(out)["volume"]) == (0, volume)
    assert sys.get_int_max_str_digits() == limit


def test_ball_command(cfg45, capsys):
    code, out, _ = run(capsys, "ball", "--config", cfg45, "--radius", "3")
    assert code == 0
    payload = json.loads(out)
    table = pb.distribution(
        pb.build_poset(5, [(1, 2)]), pb.label_map([2, 3, 4, 2, 2]), pb.lee_weight(7)
    )
    assert int(payload["volume"]) == pb.ball_volume(table, 3)


def test_ball_command_all_radii(cfg45, capsys):
    code, out, _ = run(capsys, "ball", "--config", cfg45)
    assert code == 0
    payload = json.loads(out)
    volumes = [int(v["volume"]) for v in payload["volumes"]]
    assert volumes[0] == 1 and volumes[-1] == 7**13
    assert all(a <= b for a, b in zip(volumes, volumes[1:]))


@pytest.mark.parametrize("instance", [EX45, EX69, EX73], ids=["ex45", "ex69", "ex73"])
def test_table_artifacts_keep_the_indented_encoder_bytes(tmp_path, capsys, instance):
    cfg = parse_config(instance)
    table = pb.distribution(cfg.poset, cfg.pi, cfg.weight)
    volumes = [
        {"r": r, "volume": str(pb.ball_volume(table, r))}
        for r in range(table.max_weight + 1)
    ]
    expected = {
        "distribution": pb.table_to_json_dict(table),
        "ball": {"q": table.q, "N": table.N, "method": table.method, "volumes": volumes},
    }
    path = _write(tmp_path, instance)
    for command, payload in expected.items():
        code, out, _ = run(capsys, command, "--config", path)
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"


def test_check_code_example69(tmp_path, capsys):
    code, out, _ = run(capsys, "check-code", "--config", _write(tmp_path, EX69))
    assert code == 0
    payload = json.loads(out)
    assert payload["d_pwpi"] == 11 and payload["d_ppi"] == 5
    assert payload["is_mds_ppi"] and not payload["is_mds_pwpi"]
    verdicts = {tuple(v["ideal"]): v["i_perfect"] for v in payload["i_perfect_by_ideal"]}
    assert verdicts == {(1, 2, 3, 4): True, (1, 2, 3, 5): True}


def test_check_code_passes_its_ideal_cap(tmp_path, capsys, monkeypatch):
    # a 12-fence: its Singleton maxima split 8 pieces on a maximal element
    n, pairs = fence(12)
    cfg = {
        "q": 5,
        "poset": {"n": n, "relations": pairs},
        "pi": [1, 2] * 6,
        "weight": "lee",
        "code": {"generator": [[1] * 18]},
    }
    seen = []
    real = cli.singleton_report

    def spy(*args, ideal_cap):
        seen.append(ideal_cap)
        return real(*args, ideal_cap=ideal_cap)

    monkeypatch.setattr(cli, "singleton_report", spy)
    path = _write(tmp_path, cfg)
    assert run(capsys, "check-code", "--config", path)[0] == 0
    code, _, err = run(capsys, "check-code", "--config", path, "--cap-ideals", "7")
    assert code == 3 and "cap 7" in err
    assert run(capsys, "check-code", "--config", path, "--cap-ideals", "8")[0] == 0
    assert seen == [pb.poset.IDEAL_CAP_DEFAULT, 7, 8]


def test_check_code_splits_only_what_the_fold_splits(tmp_path, capsys):
    # an antichain splits no piece, so a cap of 0 lists too: the one-element
    # pieces of two symbols are leaves of the fold, not split pieces
    cfg = {
        "q": 3,
        "poset": {"n": 2, "relations": []},
        "pi": [2, 2],
        "weight": "hamming",
        "code": {"generator": [[1, 0, 0, 0]]},
    }
    path = _write(tmp_path, cfg)
    code, out, err = run(capsys, "check-code", "--config", path, "--cap-ideals", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["i_perfect_by_ideal"] == []


def test_check_code_lists_only_the_covering_ideals(tmp_path, capsys):
    # 2^24 ideals; the listing generates only the 24 with sum(k) = N - k = 23
    cfg = {
        "q": 7,
        "poset": {"n": 24, "relations": []},
        "pi": [1] * 24,
        "weight": "lee",
        "code": {"generator": [[1] * 24]},
    }
    path = _write(tmp_path, cfg)
    start = time.perf_counter()
    code, out, _ = run(capsys, "check-code", "--config", path)
    assert time.perf_counter() - start < 0.5
    assert code == 0
    verdicts = json.loads(out)["i_perfect_by_ideal"]
    # ascending mask order: the ideal missing 24 has the smallest mask
    assert [v["ideal"] for v in verdicts] == [
        [i for i in range(1, 25) if i != left] for left in range(24, 0, -1)
    ]
    assert all(v["i_perfect"] for v in verdicts)
    # 2^12 ideals over a cap of 100, as distribution already allows
    cfg = dict(cfg, poset={"n": 12, "relations": []}, pi=[1] * 12,
               code={"generator": [[1] * 12]})
    path = _write(tmp_path, cfg)
    assert run(capsys, "distribution", "--config", path, "--cap-ideals", "100")[0] == 0
    code, out, _ = run(capsys, "check-code", "--config", path, "--cap-ideals", "100")
    assert code == 0 and len(json.loads(out)["i_perfect_by_ideal"]) == 12


def test_check_code_zero_dimension(tmp_path, capsys):
    cfg = dict(EX45)
    cfg["code"] = {"generator": [[0] * 13]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "check-code", "--config", str(path))
    assert code == 2
    assert "zero code" in err


def test_oracle_compare_ok(tmp_path, capsys):
    cfg = {
        "q": 3,
        "poset": {"n": 4, "relations": [[1, 2], [2, 3], [3, 4]]},
        "pi": [1, 2, 1, 1],
        "weight": "lee",
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "oracle-compare", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] and payload["diffs"] == []
    assert set(payload["methods"]) == {"oracle", "general", "chain"}


def test_oracle_compare_corruption_hook(tmp_path, capsys, monkeypatch):
    cfg = {
        "q": 3,
        "poset": {"n": 3, "relations": [[1, 2]]},
        "pi": [1, 1, 1],
        "weight": "lee",
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    real = cli.distribution

    def bumped(*args, **kwargs):
        table = real(*args, **kwargs)
        if table.method != "general":
            return table
        counts = list(table.counts)
        counts[1] += 1
        return dataclasses.replace(table, counts=tuple(counts))

    monkeypatch.setattr(cli, "distribution", bumped)
    code, out, _ = run(capsys, "oracle-compare", "--config", str(path))
    assert code == 1
    payload = json.loads(out)
    assert not payload["match"]
    diff = payload["diffs"][0]
    assert diff["method"] == "general" and diff["first_differing_r"] == 1


def test_oracle_compare_over_cap(tmp_path, capsys):
    cfg = dict(EX45)  # 7^13 is far over any desk cap
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "oracle-compare", "--config", str(path), "--cap-space", "1000")
    assert code == 3
    assert "cap" in err


# q^N = 3^7 fits the oracle; the 7-fence is no disjoint union and no
# ordinal sum, and general splits 3 of its pieces on a maximal element
SMALL_GENERAL = {
    "q": 3,
    "poset": dict(zip(("n", "relations"), fence(7))),
    "pi": [1] * 7,
    "weight": "lee",
}


def _write(tmp_path, cfg):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_oracle_compare_honours_cap_ideals_flag(tmp_path, capsys):
    path = _write(tmp_path, SMALL_GENERAL)
    assert run(capsys, "oracle-compare", "--config", path)[0] == 0
    code, _, err = run(capsys, "oracle-compare", "--config", path, "--cap-ideals", "2")
    assert code == 3
    assert "cap 2" in err


def test_cap_ideals_zero_is_a_cap(tmp_path, capsys):
    path = _write(tmp_path, SMALL_GENERAL)
    code, _, err = run(capsys, "distribution", "--config", path, "--cap-ideals", "0")
    assert code == 3
    assert "cap 0" in err


def test_cap_space_zero_is_a_cap(tmp_path, capsys):
    path = _write(tmp_path, SMALL_GENERAL)
    code, _, err = run(capsys, "distribution", "--config", path,
                       "--method", "oracle", "--cap-space", "0")
    assert code == 3
    assert "space cap 0" in err
    code, _, err = run(capsys, "oracle-compare", "--config", path, "--cap-space", "0")
    assert code == 3
    assert "space cap 0" in err


def test_the_environment_sets_no_cap(tmp_path, capsys, monkeypatch):
    # the space cap is the flag, else the default
    path = _write(tmp_path, SMALL_GENERAL)
    for value in ("abc", "1"):
        monkeypatch.setenv("POSETBLOCK_CAP_SPACE", value)
        assert run(capsys, "oracle-compare", "--config", path)[0] == 0
    assert run(capsys, "oracle-compare", "--config", path, "--cap-space", str(3**7 - 1))[0] == 3
    assert run(capsys, "oracle-compare", "--config", path, "--cap-space", str(3**7))[0] == 0


def test_config_checks_pi_and_the_ideal_for_every_command(tmp_path, capsys):
    # classify reads neither pi nor the ideal, yet the config is refused
    for cfg, message in (
        (dict(EX45, pi=[2, 3, 4, 2]), "pi lists 4 blocks"),
        (dict(EX45, ideal=[1, 6]), "ideal element 6 outside [1, 5]"),
        (dict(EX45, ideal=[1.0]), "must be an integer"),
    ):
        code, out, err = run(capsys, "classify", "--config", _write(tmp_path, cfg))
        assert (code, out) == (2, "") and message in err


def test_construct(tmp_path, capsys):
    cfg = {
        "q": 7,
        "poset": {"n": 5, "relations": [[1, 4], [2, 4], [3, 5]]},
        "pi": [3, 2, 1, 1, 1],
        "weight": "lee",
        "ideal": [1, 2, 3, 4],
    }
    path = tmp_path / "cons.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "construct", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == [[0, 0, 0, 0, 0, 0, 0, 1]]


def test_construct_extremes(tmp_path, capsys):
    base = {
        "q": 3,
        "poset": {"n": 3, "relations": []},
        "pi": [1, 1, 1],
        "weight": "lee",
    }
    for ideal, rows in ((list(range(1, 4)), 0), ([], 3)):
        cfg = dict(base, ideal=ideal)
        path = tmp_path / f"c{rows}.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "construct", "--config", str(path))
        assert code == 0
        assert len(json.loads(out)["generator"]) == rows


def test_construct_non_ideal(tmp_path, capsys):
    cfg = {
        "q": 3,
        "poset": {"n": 3, "relations": [[1, 2]]},
        "pi": [1, 1, 1],
        "weight": "lee",
        "ideal": [2],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "construct", "--config", str(path))
    assert code == 2
    assert "not an ideal" in err


def test_classify_command(tmp_path, capsys):
    cfg = {
        "q": 3,
        "poset": {"n": 4, "relations": [[1, 2], [2, 3], [3, 4]]},
        "pi": [1, 1, 1, 1],
        "weight": "lee",
    }
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "classify", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_chain"] and payload["is_hierarchical"]
    assert payload["level_sizes"] == [1, 1, 1, 1]


def test_malformed_relations_exit_2(tmp_path, capsys):
    cfg = {
        "q": 3,
        "poset": {"n": 3, "relations": [[1, 7]]},
        "pi": [1, 1, 1],
        "weight": "lee",
    }
    path = tmp_path / "badrel.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "distribution", "--config", str(path))
    assert code == 2
    assert "(1, 7)" in err
    assert out == ""  # stdout carries data only


def test_cycle_exit_2(tmp_path, capsys):
    cfg = {
        "q": 3,
        "poset": {"n": 3, "relations": [[1, 2], [2, 1]]},
        "pi": [1, 1, 1],
        "weight": "lee",
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "distribution", "--config", str(path))
    assert code == 2
    assert "comparable" in err


def test_missing_config_exit_2(capsys):
    code, _, err = run(capsys, "distribution", "--config", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


def test_nonprime_q_with_code_exit_2(tmp_path, capsys):
    cfg = {
        "q": 4,
        "poset": {"n": 2, "relations": []},
        "pi": [1, 1],
        "weight": "lee",
        "code": {"generator": [[1, 1]]},
    }
    path = tmp_path / "np.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "check-code", "--config", str(path))
    assert code == 2
    assert "prime" in err


def test_method_and_format_flags(cfg45, capsys):
    code, out, _ = run(capsys, "distribution", "--config", cfg45,
                       "--method", "general", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "r,count"
    code, out, _ = run(capsys, "distribution", "--config", cfg45,
                       "--method", "general", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "general"


def test_removed_method_names_exit_2(tmp_path, capsys):
    # the level form and the equal-block route are now part of general
    assert cli.METHODS == ("auto", "general", "chain")
    for name in ("hierarchical", "equal"):
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--config", _write(tmp_path, EX45), "--method", name])
        assert exc.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_oracle_method_flag(tmp_path, capsys):
    cfg = {
        "q": 2,
        "poset": {"n": 3, "relations": [[1, 2]]},
        "pi": [2, 1, 1],
        "weight": "hamming",
    }
    path = tmp_path / "om.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "distribution", "--config", str(path),
                       "--method", "oracle", "--threads", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "oracle"
    general = pb.distribution_general(
        pb.build_poset(3, [(1, 2)]), pb.label_map([2, 1, 1]), pb.hamming_weight(2)
    )
    assert tuple(int(e["count"]) for e in payload["counts"]) == general.counts


FLAGS = ["--config", "x.json", "--format", "csv", "--method", "chain", "--radius", "4",
         "--threads", "2", "--cap-ideals", "10", "--cap-space", "100"]


def test_config_numbers_must_be_integers(tmp_path, capsys):
    cases = [
        ("distribution", dict(EX45, q=7.9)),  # int() ran it as q = 7
        ("distribution", dict(EX45, q=True)),
        ("distribution", dict(EX45, pi=[2, 3, 4, 2, 2.5])),
        ("distribution", dict(EX45, poset={"n": 5, "relations": [[1, 2.0]]})),
        ("distribution", dict(EX45, poset={"n": 5.9, "relations": [[1, 2]]})),
        ("distribution", dict(EX45, weight={"table": [0, 1, 2, 3.5, 3, 2, 1]})),
        ("construct", dict(EX45, ideal=["1"])),
        # true ran as 1; a float failed inside the rank reduction
        ("distribution", dict(EX45, code={"generator": [[True] + [0] * 12]})),
        ("distribution", dict(EX45, code={"generator": [[1.0] + [0] * 12]})),
    ]
    for command, cfg in cases:
        code, out, err = run(capsys, command, "--config", _write(tmp_path, cfg))
        assert (code, out) == (2, ""), cfg
        assert "must be an integer" in err
    # a code that is not an object gave an AttributeError traceback, exit 1
    cfg = dict(EX45, code=[[1] * 13])
    code, out, err = run(capsys, "distribution", "--config", _write(tmp_path, cfg))
    assert (code, out) == (2, "")
    assert "code must be an object" in err
    # caps are integers of at least 0 too, through their flags, on every command
    for command, flag, value, message in [
        ("oracle-compare", "--cap-ideals", "0.5", "invalid int value: '0.5'"),
        ("oracle-compare", "--cap-space", "0.5", "invalid int value: '0.5'"),
        ("check-code", "--cap-ideals", "-1", "ideal cap -1 < 0"),
        ("distribution", "--cap-ideals", "-1", "ideal cap -1 < 0"),
        ("oracle-compare", "--cap-space", "-5", "space cap -5 < 0"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", _write(tmp_path, EX45), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err


# a config that every command runs: EX69 with the ideal {1, 2, 4}
EVERY_COMMAND = dict(EX69, ideal=[1, 2, 4])


@pytest.mark.parametrize(
    "key, value, flag",
    [
        ("caps", {"ideals": 100, "space": 1000}, "--cap-ideals"),
        ("caps", None, "--cap-space"),
        ("method", "general", "--method"),
        ("format", "csv", "--format"),
    ],
)
def test_run_options_in_the_config_exit_2(tmp_path, capsys, key, value, flag):
    # how to run an instance is set by flags only; an old config is refused,
    # not run with the defaults
    path = _write(tmp_path, EVERY_COMMAND)
    for command in cli.COMMANDS:
        assert run(capsys, command, "--config", path)[0] == 0, command
    path = _write(tmp_path, dict(EVERY_COMMAND, **{key: value}))
    for command in cli.COMMANDS:
        code, out, err = run(capsys, command, "--config", path)
        assert (code, out) == (2, ""), command
        assert f"'{key}' is not a config key" in err and flag in err, command
    with pytest.raises(pb.ConfigError, match=flag):
        parse_config(dict(EVERY_COMMAND, **{key: value}))


def test_bad_threads_exits_2(cfg45, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--config", cfg45, "--threads", "abc"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_threads_below_one_exit_2(cfg45, capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--config", cfg45, "--method", "oracle", "--threads", value])
        assert exc.value.code == 2
        assert f"thread count {value} < 1" in capsys.readouterr().err


def test_every_command_takes_every_flag():
    parser = cli.build_parser()
    for name in cli.COMMANDS:
        assert vars(parser.parse_args([name, *FLAGS])) == {
            "command": name, "config": "x.json", "format": "csv", "method": "chain",
            "radius": 4, "threads": 2, "cap_ideals": 10, "cap_space": 100,
        }
        # the parser holds every default; a space cap of None is the oracle's
        assert vars(parser.parse_args([name, "--config", "x.json"])) == {
            "command": name, "config": "x.json", "format": "json", "method": "auto",
            "radius": None, "threads": 1,
            "cap_ideals": pb.poset.IDEAL_CAP_DEFAULT, "cap_space": None,
        }


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang, start):
    """README's fenced block in the given language whose text begins with start."""
    blocks = re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)
    (block,) = [b for b in blocks if b.startswith(start)]
    return block


def test_readme_config_shape_and_synopsis_hold():
    # the documented config is one that check-code and construct read
    cfg = parse_config(json.loads(_readme_block("json", '{\n  "q"')))
    assert cfg.code is not None and cfg.ideal_members is not None
    # the synopsis names every flag, each choice list is the parser's, and
    # the first choice is the default
    options = re.findall(r"\[(--[\w-]+) ([^\]]+)\]", _readme_block("sh", "posetblock <command>"))
    parser = cli.build_parser()
    actions = {a.option_strings[0]: a for a in parser._actions if a.option_strings}
    assert set(actions) - {"-h"} == {"--config"} | {flag for flag, _ in options}
    for flag, text in options:
        values = text.split("|")
        if actions[flag].choices:
            assert tuple(actions[flag].choices) == tuple(values), flag
        if len(values) > 1:
            assert actions[flag].default == values[0], flag
        for name in cli.COMMANDS:
            for value in values:  # R and N stand for an integer
                parser.parse_args([name, "--config", "inst.json", flag,
                                   "7" if value.isupper() else value])
    # the command table lists every command once, and only the parser's flags
    rows = dict(re.findall(r"^\| `([\w-]+)` \|(.*)$", README.read_text(), re.M))
    assert sorted(rows) == sorted(cli.COMMANDS)
    assert set(re.findall(r"--[\w-]+", "".join(rows.values()))) <= set(actions)


def test_missing_or_unknown_command_exits_2(cfg45, capsys):
    for argv in ([], ["--config", cfg45], ["tables", "--config", cfg45]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_an_unknown_exception_exits_4(cfg45, capsys, monkeypatch):
    # the interpreter would exit 1, the code of a table mismatch
    def crash(cfg, args):
        raise RuntimeError("no such case")

    monkeypatch.setitem(cli.COMMANDS, "classify", crash)
    code, out, err = run(capsys, "classify", "--config", cfg45)
    assert (code, out, err) == (4, "", "internal error: RuntimeError: no such case\n")

    def interrupted(cfg, args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "classify", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["classify", "--config", cfg45])


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(cli.COMMANDS) == 6
    assert all(name in out for name in cli.COMMANDS)


def test_main_builds_one_parser(cfg45, capsys, monkeypatch):
    """One parser per process: importing cli builds it, main() builds none."""
    made = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    # subparsers are built by the same class, so each one counts too
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "distribution", "--config", cfg45)[0] == 0
    assert run(capsys, "ball", "--config", cfg45)[0] == 0
    assert made == []  # main() reuses the parser built at import
    importlib.reload(cli)
    assert made == ["posetblock"]


def test_reused_parser_keeps_no_state(cfg45, capsys):
    code, fresh, _ = run(capsys, "distribution", "--config", cfg45)
    assert code == 0
    # ex45 is no chain, so a --method chain left behind would exit 2
    code, _, err = run(capsys, "distribution", "--config", cfg45,
                       "--method", "chain", "--format", "csv")
    assert code == 2 and "not a chain" in err
    code, out, _ = run(capsys, "distribution", "--config", cfg45, "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "r,count"
    code, out, _ = run(capsys, "distribution", "--config", cfg45)
    assert code == 0 and out == fresh
    assert json.loads(out)["method"] == "general"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("distribution", json.dumps(dict(EX45, q=1)), "must be at least 2"),
        ("distribution", json.dumps(dict(EX45, poset={"n": 5, "relations": [[1, 2, 3]]})),
         "malformed relation pair"),
        ("distribution", json.dumps(dict(EX45, pi=[2, 3, 4, 2])), "pi lists 4 blocks"),
        ("check-code", json.dumps(dict(EX69, code={"q": 5, "generator": [[1] * 8]})),
         "differs from instance q"),
        ("construct", json.dumps(dict(EX45, ideal=[1, 6])), "ideal element 6 outside [1, 5]"),
        ("distribution", json.dumps({k: v for k, v in EX45.items() if k != "pi"}),
         "missing config key: pi"),
        ("distribution", "{not json", "is not valid JSON"),
        ("distribution", json.dumps([EX45]), "must be a JSON object"),
        ("check-code", json.dumps(EX45), "check-code needs a code"),
        ("construct", json.dumps(EX45), "construct needs an ideal"),
        # a run option is refused by its key, whatever its value
        ("distribution", json.dumps(dict(EX45, format="xml")),
         "'format' is not a config key; set it with --format"),
        *[("distribution", json.dumps(dict(EX45, caps=caps)),
           "'caps' is not a config key; set it with --cap-ideals / --cap-space")
          for caps in ([], True, 1, 0.5, None)],
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (2, "")
    assert message in err


# run in a fresh interpreter: argv[1] is a config with a code and an ideal
NO_NUMPY_SCRIPT = """
import contextlib, io, sys

import posetblock as pb
import posetblock.cli
from posetblock.config import load_config

path = sys.argv[1]
cfg = load_config(path)
assert cfg.code is not None and cfg.ideal_members is not None
for argv in (["distribution"], ["ball"], ["ball", "--radius", "2"],
             ["classify"], ["construct"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert posetblock.cli.main([*argv, "--config", path]) == 0, argv
    assert "numpy" not in sys.modules, argv
# past the space cap, r-balls that do not fill the space answer with no sweep
C = pb.linear_code(7, [[1] * 6])
P = pb.build_poset(3, [(1, 2), (2, 3)])
assert not pb.is_r_perfect(C, 1, P, pb.label_map([2, 2, 2]), pb.lee_weight(7), cap=100)
assert "numpy" not in sys.modules
from posetblock import (MetricAxiomReport, OracleResult, PerfectnessResult,
                        oracle_metric_axioms, oracle_perfectness)
assert callable(pb.oracle_distribution) and pb.oracle.__name__ == "posetblock.oracle"
assert OracleResult is pb.oracle.OracleResult and oracle_perfectness is pb.oracle.oracle_perfectness
with contextlib.redirect_stdout(io.StringIO()):
    assert posetblock.cli.main(["oracle-compare", "--config", path]) == 0
try:
    pb.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown attribute resolved")
print("ok")
"""


def test_closed_form_commands_never_load_numpy(tmp_path):
    # only the oracle imports numpy, and only the brute-force paths import the oracle
    src = Path(pb.__file__).resolve().parents[1]
    importers = []
    for module in sorted((src / "posetblock").glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(module.name)
    assert importers == ["oracle.py"]
    path = tmp_path / "coded.json"
    path.write_text(json.dumps(dict(EX69, q=5, pi=[1, 1, 1, 1, 1], ideal=[1, 2, 4],
                                    code={"generator": [[1, 0, 0, 1, 1]]})))
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", NO_NUMPY_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
