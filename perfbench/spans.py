"""Spans around calls into each ``pathcalc`` module, from outside the package.

``install`` wraps the public entry points listed in ``ENTRY_POINTS`` and
rebinds each wrapper in every ``pathcalc`` module namespace that imported
the name (``cli.generate``, ``integration.stop``, ``trading.qv_along``...).
Methods are wrapped on their class.  The ``pointwise_*`` callables of a
``Functional`` are wrapped as they are assigned, by ``Functional.__init__``
or later (``cylinder`` sets them after construction).

Spans (name, start, end, parent) stay in memory until ``Tracer.write``.
``summarize`` turns a written file into the per-layer metrics.  A span's
name is ``<module>.<entry>``; its module is the layer it is charged to.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name).  "Class.method" attributes are wrapped on
# the class.  Entries outside the metric list still matter: they charge
# their time to the right layer's self time instead of the caller's.
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("partitions", "dyadic", "partitions.dyadic"),
    ("partitions", "refine_with", "partitions.refine_with"),
    ("partitions", "PartitionSequence.__init__", "partitions.PartitionSequence"),
    ("partitions", "PartitionSequence.covers", "partitions.covers"),
    ("partitions", "last_index_before", "partitions.last_index_before"),
    ("paths", "generate", "paths.generate"),
    ("paths", "read_path_csv", "paths.read_path_csv"),
    ("paths", "SampledPath.__init__", "paths.SampledPath"),
    ("paths", "SampledPath.grid_indices", "paths.grid_indices"),
    ("paths", "stop", "paths.stop"),
    ("paths", "stepwise_approximation", "paths.stepwise_approximation"),
    ("quadvar", "qv_along", "quadvar.qv_along"),
    ("quadvar", "qv_matrix", "quadvar.qv_matrix"),
    ("quadvar", "default_probe_times", "quadvar.default_probe_times"),
    ("functionals", "Functional.value", "functionals.scalar"),
    ("functionals", "Functional.gradient", "functionals.scalar"),
    ("functionals", "Functional.hessian", "functionals.scalar"),
    ("functionals", "Functional.horizontal", "functionals.scalar"),
    ("functionals", "functional_from_descriptor", "functionals.from_descriptor"),
    ("functionals", "density_from_descriptor", "functionals.density_from_descriptor"),
    ("functionals", "density_matrix", "functionals.density_matrix"),
    ("functionals", "fpde_residual", "functionals.fpde_residual"),
    ("integration", "follmer_integrand", "integration.follmer_integrand"),
    ("integration", "follmer_integral_functional", "integration.follmer_integral_functional"),
    ("integration", "ito_residual_functional", "integration.ito_residual_functional"),
    ("trading", "hedge", "trading.hedge"),
    ("trading", "plausibility_diagnostic", "trading.plausibility_diagnostic"),
    ("convergence", "assess", "convergence.assess"),
)
POINTWISE = "functionals.pointwise"
LAYERS = ("cli", "partitions", "paths", "quadvar", "functionals", "integration",
          "trading", "convergence")
# Counters reported as they are; a ".unique" count becomes "unique_frac",
# its share of the entry's calls.
COUNTERS = ("paths.read_path_csv.rows", "functionals.pointwise.points",
            "paths.grid_indices.unique", "integration.follmer_integrand.unique")
# Spans reported as inclusive seconds and call counts.
TIMED = (
    "partitions.dyadic", "partitions.refine_with", "partitions.PartitionSequence",
    "paths.generate", "paths.read_path_csv", "paths.SampledPath", "paths.grid_indices",
    "paths.stop", "quadvar.qv_along", "functionals.scalar", POINTWISE,
    "integration.follmer_integrand", "integration.follmer_integral_functional",
    "integration.ito_residual_functional", "trading.hedge", "convergence.assess",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent index); parent -1 at the root
        self.stack = []
        self.counts = {}  # counter name -> total
        self.keys = {}  # span name -> set of distinct call keys
        self._digests = {}  # id(array) -> (array, digest); holding the array pins its id

    def wrap(self, name, fn, note=None):
        """``fn`` recording one span per call; ``note(result, *args)`` runs
        after the span closes and feeds the counters."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if note is not None:
                note(result, *args, **kwargs)
            return result

        return traced

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def digest(self, arr):
        """Content digest of an array, computed once per array object."""
        hit = self._digests.get(id(arr))
        if hit is not None:
            return hit[1]
        data = np.ascontiguousarray(np.asarray(arr, dtype=float))
        d = hashlib.blake2b(data.data, digest_size=16).digest()
        if isinstance(arr, np.ndarray):
            self._digests[id(arr)] = (arr, d)
        return d

    def write(self, file):
        counts = {**self.counts, **{f"{k}.unique": len(v) for k, v in self.keys.items()}}
        rows = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez(
            file, nid=rows[:, 0].astype(np.int32), start=rows[:, 1], end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64), names=np.array(self.names),
            counters=np.array(list(counts), dtype=str),
            counter_values=np.array(list(counts.values()), dtype=float),
        )


def install(tracer):
    """Wrap every entry point of the imported ``pathcalc`` modules."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "pathcalc" or n.startswith("pathcalc.")]
    notes = _notes(tracer)
    for module, attr, name in ENTRY_POINTS:
        owner = sys.modules[f"pathcalc.{module}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), notes.get(name)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, notes.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    functional = sys.modules["pathcalc.functionals"].Functional
    for attr in ("pointwise_value", "pointwise_grad", "pointwise_hess"):
        setattr(functional, attr, _pointwise_slot(tracer, attr))


def _notes(tracer):
    def grid_indices(result, path, ts):
        tracer.keys.setdefault("paths.grid_indices", set()).add(
            (tracer.digest(path.times), tracer.digest(ts)))

    def follmer_integrand(result, F, path, seq, n, *args, **kwargs):
        key = (tracer.digest(path.times), tracer.digest(path.values),
               path.jump_times, tracer.digest(seq.level(n)))
        tracer.keys.setdefault("integration.follmer_integrand", set()).add(key)

    def read_path_csv(result, *args, **kwargs):
        tracer.count("paths.read_path_csv.rows", result.times.size)

    return {
        "paths.grid_indices": grid_indices,
        "integration.follmer_integrand": follmer_integrand,
        "paths.read_path_csv": read_path_csv,
    }


def _pointwise_slot(tracer, attr):
    """Class-level property that wraps each callable assigned to ``attr``."""
    slot = f"_traced_{attr}"

    def points(result, t, *args):
        tracer.count("functionals.pointwise.points", int(np.size(t)))

    def get(self):
        return self.__dict__.get(slot)

    def set_(self, fn):
        self.__dict__[slot] = None if fn is None else tracer.wrap(POINTWISE, fn, points)

    return property(get, set_)


def summarize(file):
    """Per-layer metrics of one traced command, from its written spans."""
    with np.load(file) as z:
        nid, parent, names = z["nid"], z["parent"], [str(n) for n in z["names"]]
        dur = z["end"] - z["start"]
        counts = dict(zip(z["counters"].tolist(), z["counter_values"].tolist()))
    span_name = np.array(names, dtype=object)[nid]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=nid.size)
    self_time = dur - child_time
    layer = np.array([n.split(".")[0] for n in span_name], dtype=object)
    out = {f"{lay}.self_s": float(self_time[layer == lay].sum()) for lay in LAYERS}
    outermost = _outermost(nid, parent)
    for name in TIMED:
        mine = span_name == name
        out[f"{name}.s"] = float(dur[mine & outermost].sum())
        out[f"{name}.calls"] = float(mine.sum())
    for name in COUNTERS:
        out[name] = counts.get(name, 0.0)
    return out


def _outermost(nid, parent):
    """True for spans with no ancestor of the same name, so the inclusive
    time of a recursive entry (``generate`` of ``with_jumps``) counts once.
    Parents precede their children, and the distinct ancestor chains are
    few, so each chain's name set is built once."""
    interned = {}  # (parent chain, name id) -> chain id
    chain_names = []  # chain id -> name ids on the chain
    chain_of = [0] * nid.size
    out = np.empty(nid.size, dtype=bool)
    for i, (n, p) in enumerate(zip(nid.tolist(), parent.tolist())):
        up = chain_of[p] if p >= 0 else -1
        above = chain_names[up] if up >= 0 else frozenset()
        out[i] = n not in above
        cid = interned.get((up, n))
        if cid is None:
            cid = interned[(up, n)] = len(chain_names)
            chain_names.append(above | {n})
        chain_of[i] = cid
    return out
