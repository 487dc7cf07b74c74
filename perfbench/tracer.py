"""Span tracing of coclass layers from outside the package.

`install` replaces the public functions of every layer module with wrappers
that record one span per call: name, start, end, parent (through a context
variable) and run id.  The package's modules call each other through module
attributes (`linalg.smith(...)`), and calls inside a module look the name up
in the same module dictionary, so the wrappers see intra-package calls too.

Spans stay in memory until `write_spans`.  `layer_metrics` derives self time
per layer and per function and the cost counters (matrix entries), and apart
from them the exact counts that describe the answer (distinct inputs, pairs
found, orbits, orders), which must not change at all.  Work done by the
tracer itself after a call (counting entries, hashing keys) is charged to no
layer.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("linalg", "groups", "modules", "cohomology", "pairs", "extensions",
          "coclass_tree", "scenarios", "cli")

# Functions that get per-function metrics; every other public function of a
# layer module is traced too, so that its time lands in the right layer.
REPORTED = {
    "linalg": ("smith", "howell", "quotient_group"),
    "groups": ("abelian_extension_table", "make_table", "lower_central_series",
               "automorphism_group"),
    "modules": ("quotient", "g_central_series", "hom_space"),
    "cohomology": ("coboundary_matrix", "lattice_cohomology", "finite_cohomology",
                   "split_frame", "split_at_level"),
    "pairs": ("exponent_bounds", "compatible_pairs", "orbits_on_h2", "act_on_cochain",
              "complement_En", "rho_pi_data", "orbit_correspondence"),
    "extensions": ("build_extension", "are_isomorphic", "coclass_of_extension"),
    "coclass_tree": ("build_branch", "nu_shift"),
    "scenarios": ("check_lower_central_series", "summand_instability_witness",
                  "orbit_correspondence_report"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _bytes(a) -> bytes:
    return b"" if a is None else np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes()


def _lattice_key(T, basis, degree):
    """Distinct-input key: group order, action, basis, degree, precision."""
    return (T.group.order, _bytes(T.act), _bytes(basis), degree, T.ctx.N)


def _count_smith(c, args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "F"))
    c["entries"] += int(np.prod(shape)) if len(shape) == 2 else 0


def _count_coboundary(c, args, kwargs, result):
    c["entries"] += int(result.size)
    c["nnz"] += int(np.count_nonzero(result))


def _count_lattice_cohomology(c, args, kwargs, result):
    T, m = _arg(args, kwargs, 0, "T"), _arg(args, kwargs, 1, "m")
    c["distinct"].add(_lattice_key(T, _arg(args, kwargs, 2, "basis"), m))


def _count_finite_cohomology(c, args, kwargs, result):
    A, m = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "m")
    c["distinct"].add((A.group.order, _bytes(A.act), _bytes(A.exps), m, A.E))


def _count_split_frame(c, args, kwargs, result):
    T, chain, n = (_arg(args, kwargs, i, k) for i, k in enumerate(("T", "chain", "n")))
    m = _arg(args, kwargs, 3, "m")
    c["distinct"].add(_lattice_key(T, chain.bases[n], 2 if m is None else m))


def _count_exponent_bounds(c, args, kwargs, result):
    T, chain, n, d = (_arg(args, kwargs, i, k) for i, k in enumerate(("T", "chain", "n", "d")))
    c["distinct"].add(_lattice_key(T, chain.bases[n], d))


def _count_pairs(c, args, kwargs, result):
    c["found"] += len(result)


def _count_orbits(c, args, kwargs, result):
    c["h2_elements"] += int(_arg(args, kwargs, 0, "H").order)
    c["orbits"] += int(result.count)


def _count_max_order(c, args, kwargs, result):
    c["max_order"] = max(c["max_order"], int(result.order))


def _count_true(c, args, kwargs, result):
    c["true"] += bool(result)


COUNTERS = {
    "linalg.smith": (("entries",), _count_smith),
    "groups.abelian_extension_table": (("max_order",), _count_max_order),
    "cohomology.coboundary_matrix": (("entries", "nnz"), _count_coboundary),
    "cohomology.lattice_cohomology": (("distinct",), _count_lattice_cohomology),
    "cohomology.finite_cohomology": (("distinct",), _count_finite_cohomology),
    "cohomology.split_frame": (("distinct",), _count_split_frame),
    "pairs.exponent_bounds": (("distinct",), _count_exponent_bounds),
    "pairs.compatible_pairs": (("found",), _count_pairs),
    "pairs.orbits_on_h2": (("h2_elements", "orbits"), _count_orbits),
    "extensions.build_extension": (("max_order",), _count_max_order),
    "extensions.are_isomorphic": (("true",), _count_true),
}


# Counters of work done, where lower is cheaper; every other counter is an
# exact property of the answer or of the inputs.
COST_COUNTERS = ("entries", "nnz")


def metric_names() -> list[str]:
    """Every per-layer cost metric `layer_metrics` reports, in a fixed order."""
    names = ["%s.self_s" % layer for layer in LAYERS]
    for layer in LAYERS:
        for fn in REPORTED.get(layer, ()):
            full = "%s.%s" % (layer, fn)
            names += [full + ".calls", full + ".s", full + ".self_s"]
            if full in COUNTERS:
                names += [full + "." + k for k in COUNTERS[full][0] if k in COST_COUNTERS]
    return names + ["trace.bookkeeping_s"]


def exact_counter_names() -> list[str]:
    """The answer-size counters, which a correct change leaves as they are."""
    return ["%s.%s" % (full, k) for full, (keys, _) in COUNTERS.items()
            for k in keys if k not in COST_COUNTERS]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # span rows: [id, parent, layer, name, start, end, tracer_s of children]
        self.spans: list[list] = []
        # a "distinct" counter holds the set of input keys seen
        self.counters = {name: {k: set() if k == "distinct" else 0 for k in keys}
                         for name, (keys, _) in COUNTERS.items()}
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "coclass_span", default=None)

    def wrap(self, layer: str, name: str, fn):
        spans, current, clock = self.spans, self._current, time.perf_counter
        counter = COUNTERS[name][1] if name in COUNTERS else None
        store = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            parent = current.get()
            sid = len(spans)
            row = [sid, parent, layer, name, 0.0, 0.0, 0.0]
            spans.append(row)
            token = current.set(sid)
            row[4] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[5] = end = clock()
                current.reset(token)
            if counter is not None:
                counter(store, args, kwargs, result)
            if parent is not None:
                spans[parent][6] += (start - t0) + (clock() - end)
            return result

        return traced

    def install(self):
        """Wrap every public function defined in each layer module."""
        for layer in LAYERS:
            mod = importlib.import_module("coclass." + layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                setattr(mod, attr, self.wrap(layer, "%s.%s" % (layer, attr), obj))

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, layer, name, start, end, _ in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """The cost metrics and, apart from them, the exact counters."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for sid, parent, _, _, start, end, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        out = dict.fromkeys(metric_names(), 0)
        for sid, parent, layer, name, start, end, tracer_s in spans:
            self_s = (end - start) - child_s[sid] - tracer_s
            out[layer + ".self_s"] += self_s
            if name + ".calls" not in out:
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
            # inclusive time counts only the outermost call of a recursion
            anc = parent
            while anc is not None and spans[anc][3] != name:
                anc = spans[anc][1]
            if anc is None:
                out[name + ".s"] += end - start
        exact = {}
        for name, store in self.counters.items():
            for key, value in store.items():
                count = len(value) if isinstance(value, set) else value
                (out if key in COST_COUNTERS else exact)[name + "." + key] = count
        # the tracer's own time inside the traced command, measured in process
        out["trace.bookkeeping_s"] = sum(row[6] for row in spans)
        return out, exact
