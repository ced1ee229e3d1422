"""End-to-end CLI behavior: the grammar, exit codes, stdout schemas, the mismatch path."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

import posetblock as pb
from posetblock import cli
from posetblock.cli import main

EX45 = {
    "q": 7,
    "poset": {"n": 5, "relations": [[1, 2]]},
    "pi": [2, 3, 4, 2, 2],
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


def test_check_code_example69(tmp_path, capsys):
    cfg = {
        "q": 7,
        "poset": {"n": 5, "relations": [[1, 4], [2, 4], [3, 5]]},
        "pi": [3, 2, 1, 1, 1],
        "weight": "lee",
        "code": {"generator": [[0, 0, 0, 0, 0, 0, 1, 1]]},
    }
    path = tmp_path / "ex69.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "check-code", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["d_pwpi"] == 11 and payload["d_ppi"] == 5
    assert payload["is_mds_ppi"] and not payload["is_mds_pwpi"]
    verdicts = {tuple(v["ideal"]): v["i_perfect"] for v in payload["i_perfect_by_ideal"]}
    assert verdicts == {(1, 2, 3, 4): True, (1, 2, 3, 5): True}


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


# q^N = 3^4 fits the oracle; the N poset (1, 2 <= 3 and 2 <= 4) is no
# disjoint union and no ordinal sum, so general enumerates its 8 ideals
SMALL_GENERAL = {
    "q": 3,
    "poset": {"n": 4, "relations": [[1, 3], [2, 3], [2, 4]]},
    "pi": [1, 1, 1, 1],
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


def test_oracle_compare_honours_config_ideal_cap(tmp_path, capsys):
    path = _write(tmp_path, dict(SMALL_GENERAL, caps={"ideals": 2}))
    code, _, err = run(capsys, "oracle-compare", "--config", path)
    assert code == 3
    assert "cap 2" in err


def test_cap_ideals_zero_is_a_cap(tmp_path, capsys):
    path = _write(tmp_path, SMALL_GENERAL)
    code, _, err = run(capsys, "distribution", "--config", path, "--cap-ideals", "0")
    assert code == 3
    assert "cap 0" in err
    # a flag wins over the config, 0 included
    path = _write(tmp_path, dict(SMALL_GENERAL, caps={"ideals": 100}))
    assert run(capsys, "distribution", "--config", path, "--cap-ideals", "0")[0] == 3


def test_cap_space_zero_is_a_cap(tmp_path, capsys):
    path = _write(tmp_path, SMALL_GENERAL)
    code, _, err = run(capsys, "distribution", "--config", path,
                       "--method", "oracle", "--cap-space", "0")
    assert code == 3
    assert "space cap 0" in err
    path = _write(tmp_path, dict(SMALL_GENERAL, caps={"space": 0}))
    code, _, err = run(capsys, "oracle-compare", "--config", path)
    assert code == 3
    assert "space cap 0" in err


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


def test_config_method_and_format_defaults(tmp_path, capsys):
    cfg = dict(EX45, method="general", format="csv")
    path = tmp_path / "meth.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "distribution", "--config", str(path))
    assert code == 0
    assert out.splitlines()[0] == "r,count"  # config format honored
    # an explicit flag overrides the config
    code, out, _ = run(capsys, "distribution", "--config", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "general"


def test_removed_method_names_exit_2(tmp_path, capsys):
    # the level form and the equal-block route are now part of general
    assert cli.METHODS == ("auto", "general", "chain")
    for name in ("hierarchical", "equal"):
        path = _write(tmp_path, dict(EX45, method=name))
        code, _, err = run(capsys, "distribution", "--config", path)
        assert code == 2 and "unknown method" in err
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--config", _write(tmp_path, EX45), "--method", name])
        assert exc.value.code == 2


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
        ("distribution", dict(EX45, caps={"ideals": "100"})),  # a TypeError traceback
        ("oracle-compare", dict(EX45, caps={"space": "100"})),
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
    # a null cap is unset, as when the key is absent
    code, out, _ = run(capsys, "distribution", "--config",
                       _write(tmp_path, dict(EX45, caps={"ideals": None, "space": None})))
    assert code == 0 and json.loads(out)["counts"][3]["count"] == "35384"


def test_bad_threads_exits_2(cfg45, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--config", cfg45, "--threads", "abc"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_every_command_takes_every_flag():
    parser = cli.build_parser()
    for name in cli.COMMANDS:
        assert vars(parser.parse_args([name, *FLAGS])) == {
            "command": name, "config": "x.json", "format": "csv", "method": "chain",
            "radius": 4, "threads": "2", "cap_ideals": 10, "cap_space": 100,
        }
        assert vars(parser.parse_args([name, "--config", "x.json"])) == {
            "command": name, "config": "x.json", "format": None, "method": None,
            "radius": None, "threads": "auto", "cap_ideals": None, "cap_space": None,
        }


def test_missing_or_unknown_command_exits_2(cfg45, capsys):
    for argv in ([], ["--config", cfg45], ["tables", "--config", cfg45]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(cli.COMMANDS) == 6
    assert all(name in out for name in cli.COMMANDS)


def test_main_builds_one_parser(cfg45, capsys, monkeypatch):
    made = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    # subparsers are built by the same class, so each one counts too
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "distribution", "--config", cfg45)[0] == 0
    assert len(made) == 1
