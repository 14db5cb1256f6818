"""The three workloads: seeded pools of ops, each with its output check.

An op has three parts. ``make`` builds fresh library objects from the
generated data, so no digest or simplex memo carries over from an earlier
op; ``call`` is the timed part; ``check`` verifies the result and returns a
canonical text of the output, which the harness hashes into the
fingerprint. Checks replay certificates with the library's replay, test
cores for minimality, and compare hom outputs with the oracle in gen.py.
A check raises CheckFailed; it verifies fully only on an op's first run
and afterwards compares the output text with the verified one.

A unit is a tuple of ops run back to back; the CLI's ``verify`` follows
the ``core`` call whose certificate JSON it replays. Ops reach the library
through module attributes looked up at call time, so a traced run sees
the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import dismantle.certificate as C
import dismantle.cli as CLI
import dismantle.complexes as K
import dismantle.functors as F
import dismantle.graphs as G
import dismantle.homcomplex as HC
import dismantle.homgraph as HG
import dismantle.posets as P
import gen


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    key: str
    kind: str
    size: int
    make: Callable[[], tuple]
    call: Callable[..., object]
    check: Callable[[tuple, object, bool], str]
    det: bool = True  # deterministic mode: part of the fingerprint
    props: dict = field(default_factory=dict)


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# canonical output texts, independent of the library's text formats

def _jid(v):
    return [_jid(x) for x in v] if isinstance(v, tuple) else v


def _key(v) -> str:
    return json.dumps(_jid(v))


def graph_canon(g) -> str:
    return json.dumps(sorted([_key(v), sorted(_key(u) for u in
                                              g.neighborhood(v))]
                             for v in g.vertices))


def poset_canon(p) -> str:
    return json.dumps(sorted([_key(x), sorted(_key(y) for y in p.up_set(x))]
                             for x in p.elements))


def complex_canon(k) -> str:
    return json.dumps(sorted(sorted(_key(v) for v in f) for f in k.facets))


def cert_canon(cert) -> str:
    """Steps and mode; the start digest is left out on purpose."""
    return json.dumps({"category": cert.category, "mode": cert.mode,
                       "steps": [[_jid(d), _jid(w)] for d, w in cert.steps]})


def make_graph(d: gen.GraphData):
    return G.Graph(d.vertices, edges=d.edges, loops=d.loops)


def make_poset(d: gen.PosetData):
    return P.Poset(d.elements, d.lt)


def make_complex(facets):
    return K.SimplicialComplex(facets)


def _replayed(replay, obj, cert):
    ok, _, reason, residual = replay(obj, cert)
    expect(ok, f"certificate does not replay: {reason}")
    return residual


def cli_call(argv):
    """In-process CLI run with captured output: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.run(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# core-search

# Sizes are fixed; the seed draws only the structure. Many small and
# mid-size ops and few large ones keep each quantile among several ops of
# similar cost.
SCAN_GRAPH_N = (40, 44, 48, 52, 56, 60, 64, 70, 76, 82, 88, 94, 100, 100,
                112, 124, 136, 150, 164, 200)
SCAN_STRICT_N = (40, 52, 64, 80, 100, 128, 160, 240, 320)
SCAN_WEAK_N = (40, 52, 64, 80, 160)
GROWN_N = (40, 48, 56, 64, 72, 80)
COMPLEX_N = (40, 45, 50, 55, 60, 65)
# Scan-heavy inputs are drawn until folding deletes this share of them,
# so every seed asks for about the same number of rescans at each size.
# Posets are pinned by their strict deletions in both modes; on these
# sparse posets the weak count has matched it on every draw checked.
SCAN_DELETED_SHARE = 0.07  # typical for p = 4/n
SCAN_POSET_DELETED_SHARE = 0.45  # typical for p = 3/n
RNG_EVERY = 6  # every sixth op passes a seeded rng


def _core_graph_op(key, data, rng_seed, cycle, props):
    def check(inputs, result, full):
        core, cert = result
        if full:
            g = inputs[0]
            expect(_replayed(G.replay_certificate, g, cert) == core,
                   "replay residual differs from the core")
            expect(not G.find_dominated(core), "core is not stiff")
            expect(cycle is None or len(core) == cycle,
                   "core is not the grown-from cycle")
            props["deletable_share"] = len(cert) / data.n
        return cert_canon(cert) + graph_canon(core)

    return Op(key, "dismantle_core", data.n,
              lambda: (make_graph(data), _rng(rng_seed)),
              lambda g, rng: G.dismantle_core(g, rng=rng), check,
              det=rng_seed is None, props=props)


def _rng(seed):
    return None if seed is None else random.Random(seed)


def _onto_op(key, data, target, rng_seed, props):
    def check(inputs, cert, full):
        expect(cert is not None, "no dismantling onto the grown-from cycle")
        if full:
            g = inputs[0]
            expect(_replayed(G.replay_certificate, g, cert)
                   == g.induced(target), "residual is not the target")
        return cert_canon(cert)

    return Op(key, "dismantles_onto", data.n,
              lambda: (make_graph(data), target, _rng(rng_seed)),
              lambda g, t, rng: G.dismantles_onto(g, t, rng=rng), check,
              det=rng_seed is None, props=props)


def _poset_op(key, data, mode, rng_seed, props):
    def check(inputs, result, full):
        core, cert = result
        if full:
            expect(cert.mode == mode, "certificate has the wrong mode")
            expect(_replayed(P.replay_poset_certificate, inputs[0], cert)
                   == core, "replay residual differs from the core")
            left = (P.dismantlable_elements(core) if mode == "strict"
                    else P.weakly_dismantlable_elements(core))
            expect(not left, f"core still has {mode} dismantlable elements")
            props["deletable_share"] = len(cert) / data.n
        return cert_canon(cert) + poset_canon(core)

    return Op(key, f"poset_core.{mode}", data.n,
              lambda: (make_poset(data), _rng(rng_seed)),
              lambda p, rng: P.poset_core(p, mode=mode, rng=rng), check,
              det=rng_seed is None, props=props)


def _collapse_op(key, facets, n, cycle, rng_seed, props):
    def check(inputs, result, full):
        core, cert = result
        if full:
            expect(_replayed(K.replay_collapse_certificate, inputs[0], cert)
                   == core, "replay residual differs from the core")
            expect(not K.dominated_vertices(core), "core still collapses")
            expect(len(core.vertices) == cycle,
                   "core is not the grown-from cycle")
            props["deletable_share"] = len(cert) / n
        return cert_canon(cert) + complex_canon(core)

    return Op(key, "strong_collapse_core", n,
              lambda: (make_complex(facets), _rng(rng_seed)),
              lambda k, rng: K.strong_collapse_core(k, rng=rng), check,
              det=rng_seed is None, props=props)


def core_search(seed: int, workdir: str):
    ops = []

    def rng_seed():
        """Every RNG_EVERY-th op passes an rng seeded from its index."""
        idx = len(ops)
        return seed * 1000 + idx if idx % RNG_EVERY == RNG_EVERY - 1 else None

    rng = gen.rng_for("core-search", seed, "scan-graph")
    for i, n in enumerate(SCAN_GRAPH_N):
        d = gen.scan_graph(rng, n, 4 / n, SCAN_DELETED_SHARE)
        ops.append(_core_graph_op(
            f"dismantle_core/scan/{n}#{i}", d, rng_seed(), None,
            {"shape": "scan", "n": n, "density": d.density()}))

    for mode, sizes in (("strict", SCAN_STRICT_N), ("weak", SCAN_WEAK_N)):
        rng = gen.rng_for("core-search", seed, f"scan-poset-{mode}")
        for i, n in enumerate(sizes):
            d = gen.scan_poset(rng, n, 3 / n, SCAN_POSET_DELETED_SHARE)
            ops.append(_poset_op(
                f"poset_core.{mode}/scan/{n}#{i}", d, mode, rng_seed(),
                {"shape": "scan", "n": n, "density": d.density()}))

    rng = gen.rng_for("core-search", seed, "grown-graph")
    for i, n in enumerate(GROWN_N):
        cycle = 5 + i % 2
        d, steps = gen.grown_graph(rng, cycle, n - cycle)
        props = {"shape": "grown", "n": n, "density": d.density(),
                 "deletable_share": len(steps) / n}
        ops.append(_core_graph_op(f"dismantle_core/grown/{n}#{i}", d,
                                  rng_seed(), cycle, props))
        ops.append(_onto_op(f"dismantles_onto/grown/{n}#{i}", d,
                            tuple(range(cycle)), rng_seed(), dict(props)))

    rng = gen.rng_for("core-search", seed, "grown-complex")
    for i, n in enumerate(COMPLEX_N):
        cycle = 5 + i % 2
        d, _ = gen.grown_graph(rng, cycle, n - cycle)
        facets = gen.maximal_cliques(d.adjacency())
        ops.append(_collapse_op(
            f"strong_collapse_core/grown/{n}#{i}", facets, n, cycle,
            rng_seed(), {"shape": "grown-clique-complex", "n": n,
                         "facets": len(facets),
                         "deletable_share": (n - cycle) / n}))
    return [(op,) for op in ops]


# ---------------------------------------------------------------------------
# hom-cells

NAMED_PAIRS = (("P2", "K3"), ("P3", "K3"), ("P4", "K3"), ("P5", "K3"),
               ("C4", "K3"), ("C5", "K3"), ("P2", "K4"), ("P3", "K4"),
               ("P3", "P3o"), ("P2o", "K3o"), ("C4", "K2"), ("K3", "K3"))
RANDOM_PAIRS = 6
# Per-op caps, from the oracle: an op runs only on pairs where it takes at
# most about two seconds at the seed commit (P4->K4 takes minutes).
MAX_CLIQUE_BOUND = 4000  # hom_cells, hom_face_poset
MAX_FOLD_CELLS = 180  # fold_induced_hom_dismantle
MAX_C2C_CLIQUE_BOUND = 100  # clique_to_cell_dismantle
# Random pairs are drawn once, from a fixed stream, until they fall in one
# band of size; each seed then relabels their vertices. Every seed so gets
# the same structures and the same mix of op costs, which keeps the
# quantiles of this mixed pool from moving with the seed.
RANDOM_CELLS = (35, 45)
RANDOM_MORPHISMS = (12, 20)
RANDOM_MAX_CLIQUE_BOUND = 1000


def named_data(name: str) -> gen.GraphData:
    kind, n, looped = name[0], int(name[1:].rstrip("o")), name.endswith("o")
    if kind == "P":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "C":
        edges = sorted((min(i, (i + 1) % n), max(i, (i + 1) % n))
                       for i in range(n))
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return gen.GraphData(tuple(range(n)), tuple(edges),
                         tuple(range(n)) if looped else ())


def _without(d: gen.GraphData, x) -> gen.GraphData:
    return gen.GraphData(tuple(v for v in d.vertices if v != x),
                         tuple(e for e in d.edges if x not in e),
                         tuple(v for v in d.loops if v != x))


def _random_pairs(seed: int):
    """Random pairs in the size band with a fold on some side, relabeled
    by the seed; returns (label, g, h, oracle, folds)."""
    catalog = gen.rng_for("hom-cells", 0, "random-pairs")
    rng = gen.rng_for("hom-cells", seed, "relabel")
    out = []
    for slot in range(RANDOM_PAIRS):
        looped = slot % 2 == 1
        while True:
            g = gen.random_small_graph(catalog, catalog.randint(3, 5), looped)
            h = gen.random_small_graph(catalog, catalog.randint(3, 5), True)
            folds = _folds(g, h)[:1]
            if not folds:
                continue
            o = gen.HomOracle(g, h, max_morphisms=RANDOM_MORPHISMS[1],
                              max_cells=RANDOM_CELLS[1],
                              min_morphisms=RANDOM_MORPHISMS[0])
            if (o.cells is not None and len(o.cells) >= RANDOM_CELLS[0]
                    and o.clique_bound() <= RANDOM_MAX_CLIQUE_BOUND):
                break
        pg, ph = ({v: w for v, w in zip(d.vertices, rng.sample(d.vertices,
                                                               d.n))}
                  for d in (g, h))
        (side, (x, a)), = folds
        perm = pg if side == "source" else ph
        g, h = gen.relabel(g, pg), gen.relabel(h, ph)
        out.append((f"R{slot}:{g.n}->{h.n}", g, h, gen.HomOracle(g, h),
                    [(side, (perm[x], perm[a]))]))
    return out


def _folds(g, h):
    """The smallest fold on each side that has one."""
    folds = [(side, gen.first_dominated(d))
             for side, d in (("source", g), ("target", h))]
    return [f for f in folds if f[1] is not None]


def _hom_ops(label, g, h, o, folds, named):
    """Every op the caps allow on the pair, with the given folds;
    clique_to_cell_dismantle runs on named pairs only."""
    n = g.n + h.n
    props = {"source": g.n, "target": h.n, "morphisms": len(o.morphisms),
             "cells": len(o.cells),
             "source_density": g.density(), "target_density": h.density()}

    def op(kind, make, call, check, extra=None):
        return Op(f"{kind}/{label}", kind, n, make, call, check,
                  props={**props, **(extra or {})})

    def pair():
        return make_graph(g), make_graph(h)

    def check_em(inputs, ms, full):
        images = [tuple(w for _, w in m.assignment) for m in ms]
        expect(images == o.morphisms, "morphisms differ from the oracle")
        return json.dumps(images)

    def check_hg(inputs, hg, full):
        text = graph_canon(hg)
        if full:
            expect(len(hg) == len(o.morphisms), "wrong morphism count")
            expect(hg.is_reflexive(), "morphism graph is not reflexive")
            expect(sum(len(hg.neighborhood(v)) - 1 for v in hg.vertices)
                   == 2 * o.hom_edges(), "wrong morphism-graph edges")
        return text

    def make_homotopic():
        gg, hh = pair()
        first, last = (HG.Morphism.make(gg, hh, dict(zip(g.vertices, m)))
                       for m in (o.morphisms[0], o.morphisms[-1]))
        return gg, hh, first, last

    def check_homotopic(inputs, result, full):
        expect(result == o.connected(0, len(o.morphisms) - 1),
               "homotopy answer differs from the oracle")
        return str(result)

    def check_cells(inputs, cells, full):
        got = sorted(tuple(ws for _, ws in c.assignment) for c in cells)
        expect(got == sorted(o.cells), "cells differ from the oracle")
        return json.dumps(got)

    def check_face_poset(inputs, p, full):
        text = poset_canon(p)
        if full:
            expect(len(p) == len(o.cells), "wrong cell count")
            expect(sum(len(p.up_set(x)) for x in p.elements)
                   == o.relations(), "wrong cell inclusions")
        return text

    ops = [op("enumerate_morphisms", pair,
              lambda a, b: HG.enumerate_morphisms(a, b), check_em)]
    ops.append(op("hom_graph", pair, lambda a, b: HG.hom_graph(a, b),
                  check_hg))
    ops.append(op("homotopic", make_homotopic,
                  lambda a, b, f, f2: HG.homotopic(a, b, f, f2),
                  check_homotopic))
    bound = o.clique_bound()
    if bound > MAX_CLIQUE_BOUND:
        return ops
    ops.append(op("hom_cells", pair, lambda a, b: HC.hom_cells(a, b),
                  check_cells))
    ops.append(op("hom_face_poset", pair,
                  lambda a, b: HC.hom_face_poset(a, b), check_face_poset))
    if len(o.cells) <= MAX_FOLD_CELLS:
        for side, (x, a) in folds:
            folded = (gen.HomOracle(_without(g, x), h) if side == "source"
                      else gen.HomOracle(g, _without(h, x)))
            ops.append(op(f"fold_induced.{side}", pair,
                          lambda gg, hh, side=side, x=x, a=a:
                          HC.fold_induced_hom_dismantle(gg, hh, side, x, a),
                          _fold_check(side, len(folded.cells)),
                          {"deletable_share": 1 - len(folded.cells)
                           / len(o.cells)}))
    if named and bound <= MAX_C2C_CLIQUE_BOUND:
        ops.append(op("clique_to_cell_dismantle", pair,
                      lambda a, b: HC.clique_to_cell_dismantle(a, b),
                      _c2c_check(len(o.cells))))
    return ops


def _fold_check(side, folded_cells):
    def check(inputs, cert, full):
        if full:
            residual = _replayed(G.replay_certificate,
                                 HC.hom_face_graph(*inputs), cert)
            expect(len(residual) == folded_cells,
                   f"{side} fold residual is not the folded cell graph")
        return cert_canon(cert)
    return check


def _c2c_check(cells):
    def check(inputs, cert, full):
        if full:
            gg, hh = inputs
            cp = F.clique_poset(HG.hom_graph(gg, hh))
            residual = _replayed(P.replay_poset_certificate, cp, cert)
            expect(len(residual) == cells,
                   "residual is not a copy of the cell poset")
        return cert_canon(cert)
    return check


def hom_cells(seed: int, workdir: str):
    pairs = [(f"{a}->{b}", named_data(a), named_data(b))
             for a, b in NAMED_PAIRS]
    units = [(op,) for lbl, g, h in pairs for op in
             _hom_ops(lbl, g, h, gen.HomOracle(g, h), _folds(g, h), True)]
    units += [(op,) for lbl, g, h, o, folds in _random_pairs(seed)
              for op in _hom_ops(lbl, g, h, o, folds, False)]
    return units


# ---------------------------------------------------------------------------
# transport-verify

class _Files:
    """Input and certificate files of one run, under its work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        return self.rewrite(os.path.join(self.workdir, f"f{self.count}.txt"),
                            text)

    @staticmethod
    def rewrite(path: str, text: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _minimal(category, mode="strict"):
    if category == "graph":
        return lambda core: not G.find_dominated(core)
    if category == "complex":
        return lambda core: not K.dominated_vertices(core)
    if mode == "strict":
        return lambda core: not P.dismantlable_elements(core)
    return lambda core: not P.weakly_dismantlable_elements(core)


def _replay_fn(category):
    """Looked up on each call, so a traced run sees the wrapped replay."""
    return {"graph": G.replay_certificate,
            "poset": P.replay_poset_certificate,
            "complex": K.replay_collapse_certificate}[category]


def _replay(category, obj, cert):
    return _replayed(_replay_fn(category), obj, cert)


def _cli_core_unit(files, key, category, path, obj_of, size, props,
                   mode=None):
    flag = f"--{category}"
    argv = ["core", flag, path] + (["--mode", mode] if mode else [])
    cert_path = path + ".cert.json"
    minimal = _minimal(category, mode or "strict")

    def check_core(inputs, result, full):
        code, out = result
        expect(code == 0, f"core exited {code}")
        report = json.loads(out)
        cert = C.DismantlingCertificate.from_json_dict(report["certificate"])
        if full:
            residual = _replay(category, obj_of(), cert)
            expect(residual.to_text() == report["core"],
                   "reported core is not the replay residual")
            expect(minimal(residual), "reported core is not minimal")
        files.rewrite(cert_path, out)
        return cert_canon(cert) + report["core"]

    def check_verify(inputs, result, full):
        code, out = result
        expect(code == 0 and json.loads(out)["valid"] is True,
               f"verify exited {code}")
        return out

    return (Op(f"cli.core/{key}", "cli.core", size, lambda: (argv,),
               cli_call, check_core, props=props),
            Op(f"cli.verify/{key}", "cli.verify", size,
               lambda: (["verify", flag, path, cert_path],), cli_call,
               check_verify, props=props))


def _cli_onto_op(key, category, path, obj_of, target, size, props):
    argv = ["onto", f"--{category}", path, "--keep",
            ",".join(map(str, target))]

    def check(inputs, result, full):
        code, out = result
        expect(code == 0, f"onto exited {code}")
        cert = C.DismantlingCertificate.from_json_dict(
            json.loads(out)["certificate"])
        if full:
            obj = obj_of()
            want = (obj.induced(target) if category == "graph"
                    else obj.restrict(target))
            expect(_replay(category, obj, cert) == want,
                   "residual is not the target")
        return cert_canon(cert)

    return Op(f"cli.onto/{key}", "cli.onto", size, lambda: (argv,),
              cli_call, check, props=props)


def _cli_equiv_op(key, path_a, path_b, want_code, size, props):
    def check(inputs, result, full):
        expect(result[0] == want_code, f"equiv exited {result[0]}")
        return str(result[0])

    return Op(f"cli.equiv/{key}", "cli.equiv", size,
              lambda: (["equiv", "--graph", path_a, path_b],), cli_call,
              check, props=props)


def _cli_functor_op(key, name, category, path, obj_of, fn, size, props):
    def check(inputs, result, full):
        code, out = result
        expect(code == 0, f"functor exited {code}")
        text = json.loads(out)["output"]
        if full:
            expect(text == fn(obj_of()).to_text(),
                   "CLI output differs from the Python functor")
        return text

    return Op(f"cli.functor.{name}/{key}", f"cli.functor.{name}", size,
              lambda: (["functor", name, f"--{category}", path],),
              cli_call, check, props=props)


def _simplices(facets):
    return {s for f in facets for r in range(1, len(f) + 1)
            for s in itertools.combinations(f, r)}


def _verify_comp(p, g):
    expect(set(g.vertices) == set(p.elements), "comp has wrong vertices")
    for x in p.elements:
        expect(g.neighborhood(x) == p.up_set(x) | p.down_set(x) | {x},
               "comp adjacency is not comparability")


def _verify_face_graph(k, g):
    simps = _simplices(k.facets)
    expect(set(g.vertices) == simps, "face graph has wrong vertices")
    for s in simps:
        want = {t for t in simps if set(s) <= set(t) or set(t) <= set(s)}
        expect(g.neighborhood(s) == want, "face graph adjacency is wrong")


def _verify_clique_poset(g, p):
    adj = {v: set(g.neighborhood(v)) for v in g.vertices}
    cliques = _simplices(gen.maximal_cliques(adj))
    expect(set(p.elements) == cliques, "clique poset has wrong elements")
    for c in cliques:
        expect(p.up_set(c) == {d for d in cliques
                               if d != c and set(c) <= set(d)},
               "clique poset order is not inclusion")


def _verify_order_complex(p, k):
    for f in k.facets:
        expect(all(p.comparable(x, y) for x in f for y in f),
               "a facet is not a chain")
        expect(not any(all(p.comparable(z, x) for x in f)
                       for z in p.elements if z not in f),
               "a facet is not a maximal chain")


def _verify_bd(obj, out):
    if isinstance(obj, G.Graph):
        other = F.face_graph(F.clique_complex(obj))
    elif isinstance(obj, P.Poset):
        other = F.face_poset(F.order_complex(obj))
    else:
        other = F.order_complex(F.face_poset(obj))
    expect(out == other, "bd differs from its other composite")


def _canon(obj) -> str:
    if isinstance(obj, G.Graph):
        return graph_canon(obj)
    if isinstance(obj, P.Poset):
        return poset_canon(obj)
    return complex_canon(obj)


def _functor_op(key, name, obj_of, verify, size, props):
    def check(inputs, result, full):
        if full:
            verify(inputs[0], result)
        return _canon(result)

    return Op(f"{name}/{key}", name, size, lambda: (obj_of(),),
              lambda obj: getattr(F, name)(obj), check, props=props)


def _transport_op(key, name, make, replay_category, expected, size, props):
    """The timed part is the transport plus the replay of its output."""
    def call(obj, cert, target):
        out = getattr(F, name)(obj, cert)
        return out, (None if out is None
                     else _replay_fn(replay_category)(target, out))

    def check(inputs, result, full):
        out, replayed = result
        expect(out is not None and replayed[0],
               f"transported certificate does not replay: {replayed}")
        if full:
            expect(replayed[3] == expected(inputs[0]),
                   "transported residual is not the expected object")
        return cert_canon(out)

    return Op(f"{name}/{key}", name, size, make, call, check, props=props)


def transport_verify(seed: int, workdir: str):
    files = _Files(workdir)
    rng = gen.rng_for("transport-verify", seed, "grown")
    units = []

    def grown(added, cycle=5):
        d, steps = gen.typical_grown_graph(rng, cycle, added)
        return d, steps, tuple(range(cycle)), {
            "shape": "grown", "n": d.n, "density": d.density(),
            "deletable_share": len(steps) / d.n}

    def grown_p(added):
        d, steps, base = gen.grown_poset(rng, added)
        return d, steps, base, {"shape": "grown", "n": d.n,
                                "density": d.density(),
                                "deletable_share": len(steps) / d.n}

    def graph_of(d):
        return lambda: make_graph(d)

    def poset_of(d):
        return lambda: make_poset(d)

    def complex_of(facets):
        return lambda: make_complex(facets)

    # CLI: core then verify, onto, equiv and functor on int-id text files
    for i, added in enumerate((15, 30, 45, 60)):
        d, _, base, props = grown(added, 5 + i % 2)
        path = files.write(d.text())
        units.append(_cli_core_unit(files, f"graph/grown/{d.n}#{i}", "graph",
                                    path, graph_of(d), d.n, props))
        if i % 2 == 0:
            units.append((_cli_onto_op(f"graph/grown/{d.n}#{i}", "graph",
                                       path, graph_of(d), base, d.n,
                                       props),))
    srng = gen.rng_for("transport-verify", seed, "scan")
    for i, n in enumerate((60, 80, 100)):
        d = gen.scan_graph(srng, n, 4 / n, SCAN_DELETED_SHARE)
        units.append(_cli_core_unit(
            files, f"graph/scan/{n}#{i}", "graph", files.write(d.text()),
            graph_of(d), n, {"shape": "scan", "n": n,
                             "density": d.density()}))
    for i, added in enumerate((20, 40)):
        for mode in ("strict", "weak"):
            d, _, _, props = grown_p(added)
            units.append(_cli_core_unit(
                files, f"poset.{mode}/grown/{d.n}#{i}", "poset",
                files.write(d.text()), poset_of(d), d.n, props, mode))
    for i, added in enumerate((10, 20, 30)):
        d, _, base, props = grown(added, 5 + i % 2)
        facets = gen.maximal_cliques(d.adjacency())
        path = files.write(gen.complex_text(facets))
        units.append(_cli_core_unit(files, f"complex/grown/{d.n}#{i}",
                                    "complex", path, complex_of(facets),
                                    d.n, props))
        if i < 2:
            units.append((_cli_onto_op(f"complex/grown/{d.n}#{i}", "complex",
                                       path, complex_of(facets), base, d.n,
                                       props),))
    for i, cycles in enumerate(((5, 5), (5, 6))):
        pair = [grown(20, c) for c in cycles]
        units.append((_cli_equiv_op(
            f"grown/C{cycles[0]}-C{cycles[1]}#{i}",
            *(files.write(d.text()) for d, _, _, _ in pair),
            0 if cycles[0] == cycles[1] else 1,
            sum(d.n for d, _, _, _ in pair), pair[0][3]),))
    d, _, _, props = grown_p(30)
    units.append((_cli_functor_op("grown", "comp", "poset",
                                  files.write(d.text()), poset_of(d), F.comp,
                                  d.n, props),))
    d, _, _, props = grown_p(15)
    units.append((_cli_functor_op("grown", "order-complex", "poset",
                                  files.write(d.text()), poset_of(d),
                                  F.order_complex, d.n, props),))
    d, _, _, props = grown(8)
    facets = gen.maximal_cliques(d.adjacency())
    units.append((_cli_functor_op("grown", "face-graph", "complex",
                                  files.write(gen.complex_text(facets)),
                                  complex_of(facets), F.face_graph, d.n,
                                  props),))
    for name, fn, added in (("clique-poset", F.clique_poset, 12),
                            ("bd", F.bd, 8)):
        d, _, _, props = grown(added)
        units.append((_cli_functor_op("grown", name, "graph",
                                      files.write(d.text()), graph_of(d), fn,
                                      d.n, props),))

    # functors in Python
    for i, added in enumerate((40, 60)):
        d, _, _, props = grown_p(added)
        units.append((_functor_op(f"grown/{d.n}#{i}", "comp", poset_of(d),
                                  _verify_comp, d.n, props),))
    for i, added in enumerate((15, 25)):
        d, _, _, props = grown_p(added)
        units.append((_functor_op(f"grown/{d.n}#{i}", "order_complex",
                                  poset_of(d), _verify_order_complex, d.n,
                                  props),))
        d, _, _, props = grown(added - 5)
        facets = gen.maximal_cliques(d.adjacency())
        units.append((_functor_op(f"grown/{d.n}#{i}", "face_graph",
                                  complex_of(facets), _verify_face_graph,
                                  d.n, props),))
        d, _, _, props = grown(added)
        units.append((_functor_op(f"grown/{d.n}#{i}", "clique_poset",
                                  graph_of(d), _verify_clique_poset, d.n,
                                  props),))
    d, _, _, props = grown(8)
    units.append((_functor_op("graph/grown", "bd", graph_of(d), _verify_bd,
                              d.n, props),))
    d, _, _, props = grown_p(10)
    units.append((_functor_op("poset/grown", "bd", poset_of(d), _verify_bd,
                              d.n, props),))
    d, _, _, props = grown(4)
    units.append((_functor_op("complex/grown", "bd",
                              complex_of(gen.maximal_cliques(d.adjacency())),
                              _verify_bd, d.n, props),))

    # certificate transports, each followed by a replay of its output
    for i, added in enumerate((30, 60)):
        d, steps, base, props = grown_p(added)

        def make(d=d, steps=steps):
            p = make_poset(d)
            return (p, C.DismantlingCertificate("poset", p.digest(), steps,
                                                "weak"), F.comp(p))
        units.append((_transport_op(
            f"grown/{d.n}#{i}", "comp_cert_from_weak_poset_cert", make,
            "graph", lambda p, base=base: F.comp(p.restrict(base)), d.n,
            props),))
    for i, added in enumerate((10, 20)):
        d, steps, base, props = grown(added, 5 + i % 2)
        facets = gen.maximal_cliques(d.adjacency())

        def make_fg(facets=facets, steps=steps):
            k = make_complex(facets)
            return (k, C.DismantlingCertificate("complex", k.digest(), steps),
                    F.face_graph(k))

        def make_back(facets=facets, steps=steps):
            k = make_complex(facets)
            cert = C.DismantlingCertificate("complex", k.digest(), steps)
            return k, F.face_graph_cert_from_collapse_cert(k, cert), k
        units.append((_transport_op(
            f"grown/{d.n}#{i}", "face_graph_cert_from_collapse_cert", make_fg,
            "graph", lambda k, base=base: F.face_graph(k.restrict(base)),
            d.n, props),))
        units.append((_transport_op(
            f"grown/{d.n}#{i}", "collapse_cert_from_face_graph_cert",
            make_back, "complex", lambda k, base=base: k.restrict(base), d.n,
            props),))
    for i, added in enumerate((8, 15)):
        d, steps, base, props = grown(added, 5 + i % 2)

        def make_cp(d=d, steps=steps):
            g = make_graph(d)
            return (g, C.DismantlingCertificate("graph", g.digest(), steps),
                    F.clique_poset(g))
        units.append((_transport_op(
            f"grown/{d.n}#{i}", "clique_poset_cert_from_graph_cert", make_cp,
            "poset", lambda g, base=base: F.clique_poset(g.induced(base)),
            d.n, props),))
    return units


BUILDERS = {"core-search": core_search, "hom-cells": hom_cells,
            "transport-verify": transport_verify}
