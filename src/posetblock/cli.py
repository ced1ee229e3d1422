"""Command-line driver: one config file in, one artifact on stdout.

    posetblock <command> --config PATH [--format json|csv] [--method M]
        [--radius R] [--threads T] [--cap-ideals N] [--cap-space N]

Commands: distribution | ball | check-code | oracle-compare | construct
| classify.  One parser takes the command as a positional and the same
flags for every command; a command ignores the flags it does not use.
Diagnostics go to stderr, data to stdout.  Exit codes: 0 ok, 1 table
mismatch (oracle-compare), 2 config error or bad arguments, 3 enumeration
over cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codes import construct_I_perfect, is_I_perfect, singleton_report
from .config import InstanceConfig, load_config
from .distribution import (
    METHODS,
    applicable_methods,
    ball_volume,
    distribution,
    table_to_csv,
    table_to_json_dict,
)
from .errors import ConfigError, ExplosionError, PosetBlockError
from .oracle import oracle_distribution
from .poset import IDEAL_CAP_DEFAULT, classify, enumerate_ideals, ideal_closure

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_EXPLOSION = 3


def _auto_threads(value: str) -> int:
    if value == "auto":
        return min(4, os.cpu_count() or 1)
    return max(1, int(value))


def _threads_flag(value: str) -> str:
    """The raw --threads string, once _auto_threads can read it."""
    try:
        _auto_threads(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not auto or an integer: {value!r}") from None
    return value


def _emit(payload, fmt: str, table=None) -> None:
    if fmt == "csv" and table is not None:
        sys.stdout.write(table_to_csv(table))
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _caps(cfg: InstanceConfig, args) -> tuple:
    """(ideal cap, space cap): a CLI flag wins over the config's "caps".

    0 is a cap like any other; a space cap of None leaves the oracle's
    default (and its environment override) in force.
    """

    def pick(flag, key, default):
        if flag is not None:
            return flag
        value = cfg.caps.get(key)
        return default if value is None else value

    return (
        pick(args.cap_ideals, "ideals", IDEAL_CAP_DEFAULT),
        pick(args.cap_space, "space", None),
    )


def _compute_table(cfg: InstanceConfig, method: str, threads: int, args):
    ideal_cap, space_cap = _caps(cfg, args)
    if method == "oracle":
        res = oracle_distribution(
            cfg.poset, cfg.pi, cfg.weight, cap=space_cap, threads=threads
        )
        return res.to_table()
    return distribution(
        cfg.poset, cfg.pi, cfg.weight, method=method, ideal_cap=ideal_cap
    )


def cmd_distribution(cfg: InstanceConfig, args) -> int:
    table = _compute_table(cfg, args.method, _auto_threads(args.threads), args)
    _emit(table_to_json_dict(table), args.format, table)
    return EXIT_OK


def cmd_ball(cfg: InstanceConfig, args) -> int:
    table = _compute_table(cfg, args.method, _auto_threads(args.threads), args)
    if args.radius is None:
        volumes = [
            {"r": r, "volume": str(ball_volume(table, r))}
            for r in range(table.max_weight + 1)
        ]
        _emit(
            {"q": table.q, "N": table.N, "method": table.method, "volumes": volumes},
            "json",
        )
    else:
        _emit(
            {
                "q": table.q,
                "N": table.N,
                "method": table.method,
                "radius": args.radius,
                "volume": str(ball_volume(table, args.radius)),
            },
            "json",
        )
    return EXIT_OK


def cmd_check_code(cfg: InstanceConfig, args) -> int:
    if cfg.code is None:
        raise ConfigError("check-code needs a code in the config")
    if cfg.code.k == 0:
        raise ConfigError("cannot analyze the zero code (k = 0)")
    report = singleton_report(cfg.code, cfg.poset, cfg.pi, cfg.weight)
    payload = report.to_json_dict()
    payload["q"] = cfg.q
    payload["N"] = cfg.pi.N
    payload["k"] = cfg.code.k
    # ideals meeting the covering condition sum(k_i) = N - k; with equal
    # blocks of size s these are exactly the ideals of cardinality n - k/s
    family = enumerate_ideals(cfg.poset, cap=_caps(cfg, args)[0])
    verdicts = []
    for ideal in family.ideals:
        if sum(cfg.pi.k[i - 1] for i in ideal.members) == cfg.pi.N - cfg.code.k:
            verdicts.append(
                {
                    "ideal": list(ideal.members),
                    "i_perfect": is_I_perfect(cfg.code, ideal, cfg.pi),
                }
            )
    payload["i_perfect_by_ideal"] = verdicts
    _emit(payload, "json")
    return EXIT_OK


def cmd_oracle_compare(cfg: InstanceConfig, args) -> int:
    threads = _auto_threads(args.threads)
    oracle_table = _compute_table(cfg, "oracle", threads, args)
    tables = {"oracle": oracle_table}
    for method in applicable_methods(cfg.poset, cfg.pi):
        tables[method] = _compute_table(cfg, method, threads, args)
    reference = oracle_table.counts
    diffs = []
    for method, table in tables.items():
        if table.counts != reference:
            first = next(
                r
                for r, (a, b) in enumerate(zip(reference, table.counts))
                if a != b
            )
            diffs.append(
                {
                    "method": method,
                    "first_differing_r": first,
                    "oracle": str(reference[first]),
                    "got": str(table.counts[first]),
                }
            )
    _emit(
        {
            "q": cfg.q,
            "N": cfg.pi.N,
            "methods": sorted(tables),
            "match": not diffs,
            "diffs": diffs,
        },
        "json",
    )
    return EXIT_OK if not diffs else EXIT_MISMATCH


def cmd_construct(cfg: InstanceConfig, args) -> int:
    if cfg.ideal_members is None:
        raise ConfigError("construct needs an ideal in the config")
    ideal = ideal_closure(cfg.poset, cfg.ideal_members)
    if set(ideal.members) != set(cfg.ideal_members):
        raise ConfigError(
            f"{sorted(cfg.ideal_members)} is not an ideal (closure adds "
            f"{sorted(set(ideal.members) - set(cfg.ideal_members))})"
        )
    code = construct_I_perfect(cfg.poset, cfg.pi, ideal, cfg.q)
    _emit(code.to_json_dict(), "json")
    return EXIT_OK


def cmd_classify(cfg: InstanceConfig, args) -> int:
    cls = classify(cfg.poset)
    _emit(
        {
            "n": cfg.poset.n,
            "is_chain": cls.is_chain,
            "is_antichain": cls.is_antichain,
            "is_hierarchical": cls.is_hierarchical,
            "heights": list(cls.levels.heights),
            "levels": [list(lvl) for lvl in cls.levels.levels],
            "level_sizes": list(cls.levels.level_sizes),
        },
        "json",
    )
    return EXIT_OK


COMMANDS = {
    "distribution": cmd_distribution,
    "ball": cmd_ball,
    "check-code": cmd_check_code,
    "oracle-compare": cmd_oracle_compare,
    "construct": cmd_construct,
    "classify": cmd_classify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetblock",
        description="Weight distributions and code analysis for poset block spaces",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to instance JSON")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--method", choices=METHODS + ("oracle",), default=None)
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--threads", type=_threads_flag, default="auto")
    parser.add_argument("--cap-ideals", type=int, default=None)
    parser.add_argument("--cap-space", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # CLI flags win; the config may set defaults for both
        args.method = args.method or cfg.method or "auto"
        args.format = args.format or cfg.fmt or "json"
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExplosionError as exc:
        print(f"enumeration over cap: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION
    except PosetBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
