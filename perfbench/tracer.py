"""Span tracing of clusterchar's public functions, installed from outside `src/`.

`install` replaces each traced function by a wrapper in every clusterchar
module that binds it (for example `generic.decompose` is the same object as
`replab.decompose`), and traced methods on their classes. A wrapper records a
span (name, start, end, parent, op id) and folds it into per-layer totals:
calls, inclusive time and self time (inclusive time minus the time covered by
traced child spans). Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.op = -1
        self.calls: Counter = Counter()
        self.time_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()  # work counters, named "<layer>.<counter>"
        self.open: Counter = Counter()  # names of the spans currently open
        self._stack: list[int] = []
        self._child_ns: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.op])
        self._stack.append(idx)
        self._child_ns.append(0)
        self.open[name] += 1
        return idx

    def leave(self, idx: int) -> None:
        end = _now()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        child = self._child_ns.pop()
        dur = end - span[1]
        if self._child_ns:
            self._child_ns[-1] += dur
        name = span[0]
        self.open[name] -= 1
        self.calls[name] += 1
        self.time_ns[name] += dur
        self.self_ns[name] += dur - child

    def wrap(self, name, fn: Callable, on_enter=None, on_result=None, errors: dict[str, str] | None = None) -> Callable:
        """`name` is a layer name or a function of the call's arguments giving one.

        `on_enter(tracer)` and `on_result(tracer, result)` update counters;
        `errors` maps an exception class name to the counter it increments when
        the call raises it.
        """
        tracer = self
        errors = errors or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = name if isinstance(name, str) else name(args, kwargs)
            if on_enter is not None:
                on_enter(tracer)
            idx = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = errors.get(type(exc).__name__)
                if counter:
                    tracer.counts[f"{layer}.{counter}"] += 1
                raise
            finally:
                tracer.leave(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _rref_layer(args, kwargs) -> str:
    field = args[1] if len(args) > 1 else kwargs["field"]
    return "linalg.rref_qq" if field.p is None else "linalg.rref_fp"


def _cone_in_value(tracer: Tracer) -> None:
    """Cones sampled while certifying a value X(gamma), for cones per value."""
    if tracer.open["generic.generic_character"]:
        tracer.counts["generic.cones_in_values"] += 1


def _count(counter: str, measure: Callable) -> Callable:
    def on_result(tracer: Tracer, result) -> None:
        tracer.counts[counter] += measure(result)

    return on_result


def _spec(module: str, attr: str, layer, on_enter=None, on_result=None, errors=None) -> dict:
    return {"module": module, "attr": attr, "layer": layer,
            "on_enter": on_enter, "on_result": on_result, "errors": errors}


FUNCTIONS = [
    _spec("linalg", "rref", _rref_layer),
    _spec("replab", "hom_basis", "replab.hom_basis"),
    _spec("replab", "hom_dim", "replab.hom_dim"),
    _spec("replab", "ext_dim", "replab.ext_dim"),
    _spec("replab", "decompose", "replab.decompose",
          on_result=_count("replab.decompose.summands", len),
          errors={"DecompositionUncertified": "uncertified"}),
    _spec("replab", "count_subreps", "replab.count_subreps", errors={"CapExceeded": "cap_exceeded"}),
    _spec("replab", "grassmannian_euler", "replab.grassmannian_euler",
          on_result=_count("replab.grassmannian_euler.primes", lambda r: len(r.counts)),
          errors={"NotPolynomialCount": "not_polynomial"}),
    _spec("replab", "generic_representation", "replab.generic_representation",
          errors={"GenericityUncertified": "uncertified"}),
    _spec("characters", "cc_module", "characters.cc_module"),
    _spec("characters", "cc_generic", "characters.cc_generic"),
    _spec("generic", "generic_character", "generic.generic_character",
          errors={"GenericityUncertified": "uncertified"}),
    _spec("generic", "cone_of_proj_map", "generic.cone_of_proj_map", on_enter=_cone_in_value),
    _spec("generic", "virtual_generic_decomposition", "generic.virtual_generic_decomposition"),
    _spec("generic", "check_multiplicativity", "generic.check_multiplicativity"),
    _spec("generic", "CharacterCache.get", "generic.cache.get",
          on_result=_count("generic.cache.hits", lambda r: r is not None)),
    _spec("generic", "CharacterCache.put", "generic.cache.put"),
    _spec("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    _spec("laurent", "exact_divide", "laurent.exact_divide"),
    _spec("laurent", "canonical_serialize", "laurent.canonical_serialize"),
    _spec("cluster", "mutate_seed", "cluster.mutate_seed"),
    _spec("cluster", "cluster_monomials_up_to", "cluster.cluster_monomials_up_to"),
    _spec("cluster", "is_cluster_monomial", "cluster.is_cluster_monomial"),
    _spec("quiver", "Quiver.paths", "quiver.paths"),
]


# Every layer and work counter a traced round can report; absent ones read 0.
LAYERS = ["linalg.rref_qq", "linalg.rref_fp", "bench.op"] + [
    spec["layer"] for spec in FUNCTIONS if isinstance(spec["layer"], str)]
COUNTERS = ["generic.cones_in_values", "generic.cache.hits", "replab.decompose.summands",
            "replab.grassmannian_euler.primes"] + [
    f"{spec['layer']}.{counter}" for spec in FUNCTIONS for counter in (spec["errors"] or {}).values()]


def install(tracer: Tracer) -> None:
    """Wrap every function in FUNCTIONS, at every binding inside clusterchar."""
    import clusterchar  # noqa: F401  (imports every traced submodule)

    modules = [m for key, m in list(sys.modules.items()) if key == "clusterchar" or key.startswith("clusterchar.")]
    for spec in FUNCTIONS:
        module = sys.modules[f"clusterchar.{spec['module']}"]
        owner_name, _, name = spec["attr"].rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[name]
        wrapper = tracer.wrap(spec["layer"], original, spec["on_enter"], spec["on_result"], spec["errors"])
        if owner_name:
            setattr(owner, name, wrapper)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
