"""Instance configuration: one JSON file describing (q, P, pi, w [, code, ideal])."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codes import LinearCode, linear_code
from .distribution import METHODS
from .errors import ConfigError, PosetBlockError, integer
from .poset import Poset, ideal_closure, poset_from_json
from .space import LabelMap, check_shape, label_map
from .weights import WeightModel, weight_from_json


@dataclass(frozen=True)
class InstanceConfig:
    q: int
    poset: Poset
    pi: LabelMap
    weight: WeightModel
    code: LinearCode | None
    ideal_members: tuple | None
    caps: dict  # the caps the config sets; CLI flags override
    method: str | None  # default method; CLI --method overrides
    fmt: str | None  # default output format; CLI --format overrides


def parse_config(obj: dict) -> InstanceConfig:
    """The instance a config object describes.  Each value is checked by the
    builder it reaches; any PosetBlockError becomes a ConfigError."""
    try:
        weight = weight_from_json(obj["q"], obj.get("weight", "lee"))
        q = weight.q
        poset = poset_from_json(obj["poset"])
        pi = label_map(obj["pi"])
        check_shape(pi, poset.n)
        code = None
        if "code" in obj:
            code_obj = obj["code"]
            if not isinstance(code_obj, dict):
                raise ConfigError(f"code must be an object, got {code_obj!r}")
            code_q = integer(code_obj.get("q", q), "code q")
            if code_q != q:
                raise ConfigError(f"code q = {code_q} differs from instance q = {q}")
            code = linear_code(q, code_obj["generator"], n_cols=pi.N)
        ideal_members = None
        if "ideal" in obj:
            ideal_members = tuple(obj["ideal"])
            ideal_closure(poset, ideal_members)  # each member an integer in [1, n]
        caps_obj = obj.get("caps", {})
        if not isinstance(caps_obj, dict):
            raise ConfigError(f"caps must be an object, got {caps_obj!r}")
        caps = {}
        for key, value in caps_obj.items():
            if key not in ("ideals", "space"):
                raise ConfigError(f"unknown cap {key!r}; the caps are ideals, space")
            if value is not None:  # null means unset
                caps[key] = integer(value, f"cap {key!r}")
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
