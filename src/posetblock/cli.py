"""Command-line driver: one config file in, one artifact on stdout.

    posetblock <command> --config PATH [--format json|csv] [--method M]
        [--radius R] [--threads T] [--cap-ideals N] [--cap-space N]

Commands: distribution | ball | check-code | oracle-compare | construct
| classify.  One parser, built once at import, takes the command as a
positional and the same flags for every command; a command ignores the
flags it does not use.  The config describes the instance and the flags
say how to run it: each run option has one channel, its flag, whose
default the parser holds.  The distribution and ball tables are written
by distribution.table_to_json, every other artifact by json.dumps.
Diagnostics go to stderr, data to stdout.  Exit codes: 0 ok, 1 table
mismatch (oracle-compare), 2 config error or bad arguments, 3 enumeration
over cap, 4 internal error (an exception that is not the package's own).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate

from .codes import construct_I_perfect, is_I_perfect, singleton_report
from .config import InstanceConfig, load_config
from .distribution import (
    METHODS,
    applicable_methods,
    ball_volume,
    count_text,
    distribution,
    table_to_csv,
    table_to_json,
)
from .errors import ConfigError, ExplosionError, PosetBlockError
from .poset import IDEAL_CAP_DEFAULT, Ideal, classify, ideal_closure, ideals_with_sum

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_EXPLOSION = 3
EXIT_INTERNAL = 4


def _at_least(low: int, what: str):
    """An argparse type for an integer >= low: any other value exits 2 naming its flag."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
        if number < low:
            raise argparse.ArgumentTypeError(f"{what} {number} < {low}")
        return number

    return parse


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _compute_table(cfg: InstanceConfig, method: str, args):
    if method == "oracle":  # the only reader of --threads
        from .oracle import oracle_distribution

        return oracle_distribution(
            cfg.poset, cfg.pi, cfg.weight, cap=args.cap_space, threads=args.threads
        ).to_table()
    return distribution(
        cfg.poset, cfg.pi, cfg.weight, method=method, ideal_cap=args.cap_ideals
    )


def cmd_distribution(cfg: InstanceConfig, args) -> int:
    table = _compute_table(cfg, args.method, args)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(table))
    else:
        sys.stdout.write(table_to_json(table) + "\n")
    return EXIT_OK


def cmd_ball(cfg: InstanceConfig, args) -> int:
    table = _compute_table(cfg, args.method, args)
    if args.radius is None:
        sys.stdout.write(table_to_json(table, "volume", accumulate(table.counts)) + "\n")
    else:
        _emit(
            {
                "q": table.q,
                "N": table.N,
                "method": table.method,
                "radius": args.radius,
                "volume": count_text(ball_volume(table, args.radius)),
            }
        )
    return EXIT_OK


def cmd_check_code(cfg: InstanceConfig, args) -> int:
    if cfg.code is None:
        raise ConfigError("check-code needs a code in the config")
    if cfg.code.k == 0:
        raise ConfigError("cannot analyze the zero code (k = 0)")
    report = singleton_report(
        cfg.code, cfg.poset, cfg.pi, cfg.weight, ideal_cap=args.cap_ideals
    )
    payload = report.to_json_dict()
    payload["q"] = cfg.q
    payload["N"] = cfg.pi.N
    payload["k"] = cfg.code.k
    # ideals meeting the covering condition sum(k_i) = N - k, in ascending
    # mask order; with equal blocks of size s these are the ideals of
    # cardinality n - k/s.  Only they are generated, under the ideal cap.
    P, verdicts = cfg.poset, []
    for mask in ideals_with_sum(P, cfg.pi.k, cfg.pi.N - cfg.code.k, cap=args.cap_ideals):
        ideal = Ideal(P.n, mask, P.maximals_mask(mask))
        verdicts.append(
            {
                "ideal": list(ideal.members),
                "i_perfect": is_I_perfect(cfg.code, ideal, cfg.pi),
            }
        )
    payload["i_perfect_by_ideal"] = verdicts
    _emit(payload)
    return EXIT_OK


def cmd_oracle_compare(cfg: InstanceConfig, args) -> int:
    oracle_table = _compute_table(cfg, "oracle", args)
    tables = {"oracle": oracle_table}
    for method in applicable_methods(cfg.poset, cfg.pi):
        tables[method] = _compute_table(cfg, method, args)
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
        }
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
    _emit(code.to_json_dict())
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
        }
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
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--method", choices=METHODS + ("oracle",), default="auto")
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--threads", type=_at_least(1, "thread count"), default=1)
    parser.add_argument("--cap-ideals", type=_at_least(0, "ideal cap"), default=IDEAL_CAP_DEFAULT)
    # None is space.SPACE_CAP_DEFAULT; 0 is a cap like any other
    parser.add_argument("--cap-space", type=_at_least(0, "space cap"), default=None)
    return parser


# built once per process; parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExplosionError as exc:
        print(f"enumeration over cap: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION
    except PosetBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # not BaseException: SystemExit and Ctrl-C pass
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
