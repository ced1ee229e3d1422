"""Instance configuration: one JSON file describing (q, P, pi, w [, code, ideal]).

How to run the instance (method, output format, caps) is set by CLI flags
only; a config that still carries one of those keys is refused."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codes import LinearCode, linear_code
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


# former config keys and the flags that replaced them: refused, not ignored,
# so an old config does not silently run with the defaults
_FLAGS = {"caps": "--cap-ideals / --cap-space", "method": "--method", "format": "--format"}


def parse_config(obj: dict) -> InstanceConfig:
    """The instance a config object describes.  Each value is checked by the
    builder it reaches; any PosetBlockError becomes a ConfigError."""
    for key, flag in _FLAGS.items():
        if key in obj:
            raise ConfigError(f"{key!r} is not a config key; set it with {flag}")
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
        return InstanceConfig(
            q=q,
            poset=poset,
            pi=pi,
            weight=weight,
            code=code,
            ideal_members=ideal_members,
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
