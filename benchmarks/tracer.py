"""Per-layer tracing of the ``dismantle`` modules, installed from outside.

Each layer is one module of the package. The tracer replaces the public
functions of every layer, and a fixed set of methods on its classes, with
wrappers that record a span (name, start, end, parent span, op id) or, for
primitives called millions of times, only a call count. The library binds
names with ``from .x import y``, so every module attribute and every
module-level table that holds a wrapped object is rebound as well.

Spans stay in memory until the run ends. A span's self time is its
duration minus the time its child spans cover; a layer's self time is the
sum over its spans.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

LAYERS = ("canon", "certificate", "graphs", "posets", "complexes",
          "functors", "homgraph", "homcomplex", "formats", "cli")

# Called so often that a span would cost more than the call: counted only.
COUNTED = {"canon.sort_key", "graphs.Graph.edges",
           "homgraph.morphisms_adjacent", "homgraph.Morphism.name",
           "posets.weakly_dominates"}

# Methods that build or transform objects. Accessors such as
# Graph.neighborhood stay unwrapped; their time is their caller's.
METHODS = {
    "graphs.Graph": ("__init__", "edges", "induced", "without", "relabel",
                     "to_text", "digest"),
    "posets.Poset": ("__init__", "covers", "restrict", "without", "to_text",
                     "digest"),
    "posets.MonotoneMap": ("make",),
    "complexes.SimplicialComplex": ("__init__", "from_simplices",
                                    "simplices", "link", "star", "delete",
                                    "restrict", "to_text", "digest"),
    "certificate.DismantlingCertificate": ("to_json_dict", "to_json",
                                           "from_json_dict", "from_json"),
    "homgraph.Morphism": ("make", "name"),
    "homcomplex.IndexingFunction": ("make", "name"),
}

TRANSPORTS = ("comp_cert_from_weak_poset_cert",
              "weak_poset_cert_from_comp_cert",
              "collapse_cert_from_graph_cert",
              "graph_cert_from_collapse_cert",
              "face_graph_cert_from_collapse_cert",
              "collapse_cert_from_face_graph_cert",
              "clique_poset_cert_from_graph_cert")


def _hom_edges(g) -> int:
    return sum(len(g.neighborhood(v)) - (v in g.neighborhood(v))
               for v in g.vertices) // 2


# span name -> (counter, function of the result)
RESULT_COUNTS = {
    "graphs.dismantle_core": ("graphs.dismantle_core.steps",
                              lambda r: len(r[1])),
    "complexes.strong_collapse_core": ("complexes.strong_collapse_core.steps",
                                       lambda r: len(r[1])),
    "graphs.cliques": ("graphs.cliques.count", len),
    "homgraph.enumerate_morphisms": ("homgraph.morphisms", len),
    "homgraph.hom_graph": ("homgraph.hom_graph.edges", _hom_edges),
    "homcomplex.hom_cells": ("homcomplex.cells", len),
}

# span name -> (counter, function of the first argument)
ARG_COUNTS = {
    f"formats.parse_{c}": ("formats.bytes_parsed",
                           lambda text: len(text.encode("utf-8")))
    for c in ("graph", "poset", "complex")
}


def _poset_core_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "strict")
    return f"posets.poset_core.{mode}"


NAME_BY_ARGS = {"posets.poset_core": _poset_core_name}


class Tracer:
    """Spans and counts for one run. Record only while ``on`` is true; the
    harness turns it off around input construction and output checks."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._counts: dict[str, list] = {}

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _cell(self, name: str) -> list:
        return self._counts.setdefault(name, [0])

    def counts(self) -> dict:
        return {k: v[0] for k, v in self._counts.items()}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tr = self
        if name in COUNTED:
            cell = self._cell(name)

            def counted(*args, **kwargs):
                if tr.on:
                    cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        nid = self._nid(name)
        name_of = NAME_BY_ARGS.get(name)
        result_count = RESULT_COUNTS.get(name)
        arg_count = ARG_COUNTS.get(name)
        res_cell = self._cell(result_count[0]) if result_count else None
        arg_cell = self._cell(arg_count[0]) if arg_count else None

        def spanned(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = len(tr.end)
            tr.name_id.append(nid if name_of is None
                              else tr._nid(name_of(args, kwargs)))
            tr.parent.append(tr._stack[-1])
            tr.op_id.append(tr.op)
            tr.end.append(0.0)
            tr._stack.append(i)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[i] = perf_counter()
                tr._stack.pop()
            if res_cell is not None:
                res_cell[0] += result_count[1](result)
            if arg_cell is not None:
                arg_cell[0] += arg_count[1](args[0])
            return result

        return spanned

    def install(self) -> None:
        """Wrap every layer, then rebind each reference the package holds."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dismantle.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for qual, methods in METHODS.items():
            layer, cls_name = qual.split(".")
            cls = getattr(importlib.import_module(f"dismantle.{layer}"),
                          cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{qual}.{'init' if meth == '__init__' else meth}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                elif isinstance(raw, property):
                    new = property(self._wrap(raw.fget, name))
                else:
                    new = self._wrap(raw, name)
                setattr(cls, meth, new)

        pkg = importlib.import_module("dismantle")
        mods = [pkg] + [importlib.import_module(f"dismantle.{m.name}")
                        for m in pkgutil.iter_modules(pkg.__path__)]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):  # tables such as FUNCTORS
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
                        elif isinstance(val, tuple) and any(
                                id(v) in replaced for v in val):
                            obj[key] = tuple(replaced.get(id(v), v)
                                             for v in val)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """span name -> [calls, inclusive seconds, self seconds]."""
        n = len(self.end)
        cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        agg = {}
        for i in range(n):
            row = agg.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            d = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += d
            row[2] += d - cover[i]
        return agg

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.end)):
                fh.write(f"{i}\t{self.op_id[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def layer_metrics(agg: dict, counts: dict) -> dict:
    """The per-layer metrics (name -> (value, unit)) from one traced pass.
    Ratios whose base is zero read 0."""

    def calls(name):
        return agg.get(name, (0,))[0] + counts.get(name, 0)

    def incl(name):
        return agg.get(name, (0, 0.0))[1]

    def self_s(*names):
        return sum((agg.get(n, (0, 0.0, 0.0))[2] for n in names), 0.0)

    def layer_self(layer):
        return sum((row[2] for name, row in agg.items()
                    if name.split(".", 1)[0] == layer), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    cells = counts.get("homcomplex.cells", 0)
    out = {
        "canon.sort_key.calls": (calls("canon.sort_key"), "count"),
        "canon.digest_text.calls": (calls("canon.digest_text"), "count"),
        "certificate.json.self_s": (self_s(*(
            f"certificate.DismantlingCertificate.{m}"
            for m in METHODS["certificate.DismantlingCertificate"])), "s"),
        "graphs.Graph.init.calls": (calls("graphs.Graph.init"), "count"),
        "graphs.find_dominated.calls": (calls("graphs.find_dominated"),
                                        "count"),
        "graphs.find_dominated.self_s": (self_s("graphs.find_dominated"),
                                         "s"),
        "graphs.dismantle_core.ms_per_step": (ratio(
            1000 * incl("graphs.dismantle_core"),
            counts.get("graphs.dismantle_core.steps", 0)), "ms"),
        "graphs.replay_certificate.self_s": (
            self_s("graphs.replay_certificate"), "s"),
        "graphs.Graph.edges.calls": (calls("graphs.Graph.edges"), "count"),
        "graphs.cliques.self_s": (self_s("graphs.cliques"), "s"),
        "graphs.cliques.count": (counts.get("graphs.cliques.count", 0),
                                 "count"),
        "posets.Poset.init.calls": (calls("posets.Poset.init"), "count"),
        "posets.poset_core.strict.self_s": (
            self_s("posets.poset_core.strict"), "s"),
        "posets.poset_core.weak.self_s": (self_s("posets.poset_core.weak"),
                                          "s"),
        "posets.weakly_dominates.calls": (calls("posets.weakly_dominates"),
                                          "count"),
        "posets.fixpoint_dismantle.self_s": (
            self_s("posets.fixpoint_dismantle"), "s"),
        "posets.replay_poset_certificate.self_s": (
            self_s("posets.replay_poset_certificate"), "s"),
        "complexes.strong_collapse_core.ms_per_step": (ratio(
            1000 * incl("complexes.strong_collapse_core"),
            counts.get("complexes.strong_collapse_core.steps", 0)), "ms"),
        "complexes.SimplicialComplex.link.calls": (
            calls("complexes.SimplicialComplex.link"), "count"),
        "complexes.SimplicialComplex.delete.calls": (
            calls("complexes.SimplicialComplex.delete"), "count"),
        "complexes.replay_collapse_certificate.self_s": (
            self_s("complexes.replay_collapse_certificate"), "s"),
        "functors.clique_poset.self_s": (self_s("functors.clique_poset"), "s"),
        "functors.face_graph.self_s": (self_s("functors.face_graph"), "s"),
        "functors.bd.self_s": (self_s("functors.bd"), "s"),
        "functors.transport.self_s": (self_s(*(f"functors.{t}"
                                               for t in TRANSPORTS)), "s"),
        "functors.comp.self_s": (self_s("functors.comp"), "s"),
        "homgraph.enumerate_morphisms.self_s": (
            self_s("homgraph.enumerate_morphisms"), "s"),
        "homgraph.morphisms": (counts.get("homgraph.morphisms", 0), "count"),
        "homgraph.morphisms_adjacent.calls": (
            calls("homgraph.morphisms_adjacent"), "count"),
        "homgraph.Morphism.name.calls": (calls("homgraph.Morphism.name"),
                                         "count"),
        "homgraph.hom_graph.calls": (calls("homgraph.hom_graph"), "count"),
        "homgraph.adjacent_ratio": (ratio(
            counts.get("homgraph.hom_graph.edges", 0),
            calls("homgraph.morphisms_adjacent")), "ratio"),
        "homcomplex.hom_cells.calls": (calls("homcomplex.hom_cells"), "count"),
        "homcomplex.hom_cells.self_s": (self_s("homcomplex.hom_cells"), "s"),
        "homcomplex.cells": (cells, "count"),
        "homcomplex.ms_per_cell": (ratio(1000 * incl("homcomplex.hom_cells"),
                                         cells), "ms"),
        "homcomplex.phi.calls": (calls("homcomplex.phi"), "count"),
        "homcomplex.cells_per_phi": (ratio(cells, calls("homcomplex.phi")),
                                     "ratio"),
        "homcomplex.hom_face_poset.self_s": (
            self_s("homcomplex.hom_face_poset"), "s"),
        "homcomplex.fold_induced_hom_dismantle.self_s": (
            self_s("homcomplex.fold_induced_hom_dismantle"), "s"),
        "homcomplex.clique_to_cell_dismantle.self_s": (
            self_s("homcomplex.clique_to_cell_dismantle"), "s"),
        "formats.bytes_parsed": (counts.get("formats.bytes_parsed", 0),
                                 "bytes"),
        "cli.run.calls": (calls("cli.run"), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    return out
