"""Traced runs: spans and counters around calls into the package's layers.

The tracer wraps every public function of the observed modules and rebinds
the wrapper in its own module and in every `posetblock` module that holds
the function under a name (`enumerate_ideals` is imported into
`distribution`, `codes` and `cli`), so calls through module globals are seen
as well as calls from outside.  Nothing in the package changes; `uninstall`
puts the original functions back.

Each wrapped call records a span (id, parent id, job id, name, start, end).
Spans stay in memory and are written out when the run ends.  A layer's busy
time counts only its outermost spans; its self time is the duration of its
spans minus the part their child spans cover.  Functions called once per
inner-loop step are timed and counted as aggregates without span records,
and `weights.block_class_size` (1.77 M cached lookups in one antichain job
at the seed) is not wrapped at all: its counts come from `cache_info()`,
and its time is part of the calling layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "poset", "weights", "partitions", "distribution", "space", "codes", "oracle")
MODULE_LAYER = {
    "posetblock.cli": "cli",
    "posetblock.config": "cli",
    "posetblock.poset": "poset",
    "posetblock.weights": "weights",
    "posetblock.partitions": "partitions",
    "posetblock.distribution": "distribution",
    "posetblock.space": "space",
    "posetblock.codes": "codes",
    "posetblock.oracle": "oracle",
}
# serialization is the CLI's work, wherever it is defined
CLI_FUNCTIONS = {"table_to_json_dict", "table_to_csv", "table_to_json", "table_from_json_dict"}
AGGREGATE = {
    "partitions_by_count",
    "enumerate_partitions",
    "enumerate_arrangements",
    "arrangement_count",
    "pwpi_weight",
    "pwpi_distance",
    "pi_support",
    "vector_sub",
    "block_weight",
    "block_vector",
}
UNWRAPPED = {"block_class_size"}
TABLE_METHODS = {
    "distribution_general": "general",
    "distribution_equal_blocks": "equal",
    "distribution_hierarchical": "hierarchical",
    "distribution_chain": "chain",
    "distribution_specialized": "specialized",
}
# lru caches whose hit ratios are reported: metric prefix -> (module, attribute)
CACHES = {
    "weights.block_class_size": ("posetblock.weights", "block_class_size"),
    "partitions.partitions_by_count": ("posetblock.partitions", "partitions_by_count"),
    "codes.codewords": ("posetblock.codes", "codewords"),
}
KINDS = ("chain", "antichain", "hierarchical", "general")


def package_caches() -> dict:
    """Every lru cache in the loaded package, keyed by "module.attribute"."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "posetblock" or name.startswith("posetblock.")):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == name:
                out[f"{name}.{attr}"] = obj
    return out


def _hook_enumerate_ideals(tr, bound, result):
    P = bound["P"]
    tr.count["poset.ideals"] += len(result)
    if P in tr.job_posets:
        tr.count["poset.enumerate_ideals.repeats"] += 1
    tr.job_posets.add(P)


def _hook_perfectness(tr, bound, result):
    space = bound["W"].q ** bound["pi"].N
    if bound.get("radius") is not None:
        space *= bound["code"].size
    tr.count["oracle.perfectness.vector_visits"] += space


def _counter(key, measure):
    def hook(tr, result):
        tr.count[key] += measure(result)

    return hook


# hooks that read the call's arguments get them bound by parameter name
ARG_HOOKS = {
    "poset.enumerate_ideals": _hook_enumerate_ideals,
    "oracle.oracle_perfectness": _hook_perfectness,
}
RESULT_HOOKS = {
    "partitions.enumerate_arrangements": _counter("partitions.arrangements", len),
    "oracle.oracle_distribution": _counter("oracle.vectors", lambda r: r.total),
    "codes.codewords": _counter("codes.codewords", len),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, job id, name, start, end)
        self.stack = []  # open frames: [span id, seconds covered by children]
        self.open = defaultdict(int)  # open span count per layer and per function
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)
        self.job = None
        self.job_kind = "general"
        self.job_posets = set()
        self._next_id = 0
        self._restore = []

    def wrap(self, name: str, layer: str, fn, record: bool):
        tr = self
        arg_hook = ARG_HOOKS.get(name)
        result_hook = RESULT_HOOKS.get(name)
        signature = inspect.signature(fn) if arg_hook else None
        table_method = name.startswith("distribution.") and name[13:] in TABLE_METHODS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr._next_id += 1
            sid = tr._next_id
            parent = tr.stack[-1][0] if tr.stack else 0
            frame = [sid, 0.0]
            tr.stack.append(frame)
            outer_layer = tr.open[layer] == 0
            outer_fn = tr.open[name] == 0
            tr.open[layer] += 1
            tr.open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tr.open[layer] -= 1
                tr.open[name] -= 1
                tr.stack.pop()
                took = end - start
                if tr.stack:
                    tr.stack[-1][1] += took
                own = took - frame[1]
                tr.self_time[layer] += own
                tr.self_time[name] += own
                if outer_layer:
                    tr.busy[layer] += took
                    if layer == "distribution":
                        tr.busy[f"distribution.kind.{tr.job_kind}"] += took
                if outer_fn:
                    tr.busy[name] += took
                tr.count[name + ".calls"] += 1
                if record:
                    tr.spans.append((sid, parent, tr.job, name, start, end))
            if table_method:
                tr.count["distribution.tables"] += 1
            if arg_hook:
                arg_hook(tr, signature.bind(*args, **kwargs).arguments, result)
            if result_hook:
                result_hook(tr, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for modname, layer in MODULE_LAYER.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != modname:
                    continue
                fl = "cli" if attr in CLI_FUNCTIONS else layer
                wrappers[id(obj)] = (obj, self.wrap(f"{fl}.{attr}", fl, obj, attr not in AGGREGATE))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "posetblock" or name.startswith("posetblock.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def begin_job(self, job_id: str, kind: str) -> None:
        self.job, self.job_kind = job_id, kind
        self.job_posets = set()

    def end_job(self, caches: dict) -> None:
        """Fold in the job's cache statistics (caches are cleared before each job)."""
        for prefix, (mod, attr) in CACHES.items():
            fn = caches.get(f"{mod}.{attr}")
            if fn is not None:
                info = fn.cache_info()
                self.count[prefix + ".hits"] += info.hits
                self.count[prefix + ".lookups"] += info.hits + info.misses
        self.job = None

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, job, name, start, end]) + "\n")

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, each per traced pass of the batch."""
        b, s, c = self.busy, self.self_time, self.count

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (b[layer] / passes, "s")
            out[f"{layer}.self_s"] = (s[layer] / passes, "s")
        calls = c["poset.enumerate_ideals.calls"]
        out.update({
            "poset.ideals": (c["poset.ideals"] / passes, "count"),
            "poset.enumerate_ideals.calls": (calls / passes, "count"),
            "poset.enumerate_ideals.repeat_ratio": (
                ratio(c["poset.enumerate_ideals.repeats"], calls), "ratio"),
            "partitions.arrangements": (c["partitions.arrangements"] / passes, "count"),
            "distribution.tables": (c["distribution.tables"] / passes, "count"),
            "oracle.distribution.busy_s": (b["oracle.oracle_distribution"] / passes, "s"),
            "oracle.vectors": (c["oracle.vectors"] / passes, "count"),
            "oracle.vectors_per_s": (
                ratio(c["oracle.vectors"], b["oracle.oracle_distribution"]), "1/s"),
            "oracle.perfectness.calls": (c["oracle.oracle_perfectness.calls"] / passes, "count"),
            "oracle.perfectness.busy_s": (b["oracle.oracle_perfectness"] / passes, "s"),
            "oracle.perfectness.vector_visits": (
                c["oracle.perfectness.vector_visits"] / passes, "count"),
            "codes.codewords": (c["codes.codewords"] / passes, "count"),
            "space.pwpi_weight.calls": (c["space.pwpi_weight.calls"] / passes, "count"),
            "space.pwpi_weight.busy_s": (b["space.pwpi_weight"] / passes, "s"),
            "weights.block_class_size.lookups": (
                c["weights.block_class_size.lookups"] / passes, "count"),
        })
        for prefix in CACHES:
            out[prefix + ".hit_ratio"] = (
                ratio(c[prefix + ".hits"], c[prefix + ".lookups"]), "ratio")
        for fn, method in TABLE_METHODS.items():
            if method != "specialized":
                out[f"distribution.{method}.busy_s"] = (b["distribution." + fn] / passes, "s")
        for kind in KINDS:
            out[f"distribution.kind.{kind}.busy_s"] = (
                b[f"distribution.kind.{kind}"] / passes, "s")
        return out

    def target_seconds(self, workload: str) -> float:
        """Time in the layers a workload was chosen for (all traced passes)."""
        s = self.self_time
        if workload == "tables":
            return s["poset"] + s["partitions"] + s["weights"] + s["distribution"]
        if workload == "oracle":
            return self.busy["oracle.oracle_distribution"]
        return s["oracle.oracle_perfectness"] + s["codes"] + s["space"]
