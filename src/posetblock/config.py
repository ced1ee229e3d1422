"""Instance configuration: one JSON file describing (q, P, pi, w [, code, ideal])."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codes import LinearCode, linear_code
from .distribution import METHODS
from .errors import ConfigError, PosetBlockError
from .poset import Poset, poset_from_json
from .space import LabelMap, label_map
from .weights import WeightModel, weight_from_json


@dataclass(frozen=True)
class InstanceConfig:
    q: int
    poset: Poset
    pi: LabelMap
    weight: WeightModel
    code: LinearCode | None
    ideal_members: tuple | None
    caps: dict
    method: str | None  # default method; CLI --method overrides
    fmt: str | None  # default output format; CLI --format overrides


def _int(value, what: str) -> int:
    """value itself if it is a JSON integer: never a bool, never rounded or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def parse_config(obj: dict) -> InstanceConfig:
    try:
        q = _int(obj["q"], "q")
        if q < 2:
            raise ConfigError(f"q = {q} must be at least 2")
        poset_obj = obj["poset"]
        _int(poset_obj["n"], "poset n")
        for pair in poset_obj.get("relations", []):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"malformed relation pair: {pair!r}")
            for v in pair:
                _int(v, "relation endpoint")
        poset = poset_from_json(poset_obj)
        pi = label_map([_int(v, "block length") for v in obj["pi"]])
        if poset.n != pi.n:
            raise ConfigError(
                f"poset has {poset.n} elements but pi lists {pi.n} blocks"
            )
        weight_obj = obj.get("weight", "lee")
        if isinstance(weight_obj, dict):
            for v in weight_obj.get("table", []):
                _int(v, "weight table entry")
        weight = weight_from_json(q, weight_obj)
        code = None
        if "code" in obj:
            code_obj = obj["code"]
            if not isinstance(code_obj, dict):
                raise ConfigError(f"code must be an object, got {code_obj!r}")
            code_q = _int(code_obj.get("q", q), "code q")
            if code_q != q:
                raise ConfigError(f"code q = {code_q} differs from instance q = {q}")
            rows = [
                [_int(v, "generator entry") for v in row] for row in code_obj["generator"]
            ]
            code = linear_code(q, rows, n_cols=pi.N)
        ideal_members = None
        if "ideal" in obj:
            ideal_members = tuple(_int(v, "ideal element") for v in obj["ideal"])
            for v in ideal_members:
                if not 1 <= v <= poset.n:
                    raise ConfigError(f"ideal element {v} outside [1, {poset.n}]")
        caps = dict(obj.get("caps", {}))
        for key, value in caps.items():
            if value is not None:  # null means unset
                _int(value, f"cap {key!r}")
        method = obj.get("method")
        if method is not None and method not in METHODS + ("oracle",):
            raise ConfigError(f"unknown method {method!r}")
        fmt = obj.get("format")
        if fmt is not None and fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {fmt!r}")
        return InstanceConfig(
            q=q,
            poset=poset,
            pi=pi,
            weight=weight,
            code=code,
            ideal_members=ideal_members,
            caps=caps,
            method=method,
            fmt=fmt,
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc.args[0]}") from exc
    except PosetBlockError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path: str) -> InstanceConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(obj)
