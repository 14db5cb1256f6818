"""Certificate order against the reference greedy loop in the oracles.

The library runs one dismantling engine for every category; these tests
pin its choices, step for step, to a smallest-first loop over raw
neighbourhoods, order relations and facets, both deterministically and
under a seeded rng.
"""

import random
from functools import partial

from dismantle import (Graph, Poset, SimplicialComplex,
                       derive_collapse_certificate, derive_graph_certificate,
                       derive_poset_certificate, dismantle_core,
                       dismantles_onto, poset_core, strong_collapse_core,
                       strong_collapse_onto)

from oracles import (complex_pairs, first_witnesses, graph_pairs,
                     greedy_dismantle, maximal_sets, restrict_edges,
                     restrict_facets, restrict_order, strict_poset_pairs,
                     transitive_closure, weak_poset_pairs)

SEEDS = range(40)


def raw_graph(rng):
    n = rng.randint(1, 9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.45]
    edges += [(i, i) for i in range(n) if rng.random() < 0.7]
    return list(range(n)), edges


def raw_poset(rng):
    n = rng.randint(1, 9)
    lt = [(i, j) for i in range(n) for j in range(i + 1, n)
          if rng.random() < 0.35]
    return list(range(n)), transitive_closure(range(n), lt)


def raw_complex(rng):
    n = rng.randint(1, 7)
    simplices = [rng.sample(range(n), rng.randint(1, n))
                 for _ in range(rng.randint(1, 5))]
    facets = maximal_sets(simplices)
    return sorted(set().union(*facets)), facets


def graph_of(vs, edges):
    return Graph(vs, edges=[e for e in edges if e[0] != e[1]],
                 loops=[u for u, v in edges if u == v])


def rngs(seed):
    """A fresh rng pair per mode: None for the deterministic loop."""
    yield None, None
    yield random.Random(seed), random.Random(seed)


def test_graph_core_and_onto_follow_the_reference_loop():
    for seed in SEEDS:
        vs, edges = raw_graph(random.Random(seed))
        g = graph_of(vs, edges)
        keeps = [set(random.Random(-seed).sample(vs, len(vs) // 2))]
        for lib_rng, ref_rng in rngs(seed):
            core, cert = dismantle_core(g, rng=lib_rng)
            steps, left = greedy_dismantle(vs, edges, graph_pairs,
                                           restrict_edges, rng=ref_rng)
            assert list(cert.steps) == steps, seed
            assert set(core.vertices) == left
            keeps.append(left)
        for keep in keeps:
            for lib_rng, ref_rng in rngs(seed):
                cert = dismantles_onto(g, keep, rng=lib_rng)
                ref = greedy_dismantle(vs, edges, graph_pairs,
                                       restrict_edges, rng=ref_rng, keep=keep)
                assert (cert is None) == (ref is None), seed
                if ref is not None:
                    assert list(cert.steps) == ref[0], seed


def test_poset_core_follows_the_reference_loop():
    for seed in SEEDS:
        els, rel = raw_poset(random.Random(seed))
        p = Poset(els, rel)
        for mode, pairs in (("strict", strict_poset_pairs),
                            ("weak", weak_poset_pairs)):
            for lib_rng, ref_rng in rngs(seed):
                core, cert = poset_core(p, mode, rng=lib_rng)
                steps, left = greedy_dismantle(els, rel, pairs,
                                               restrict_order, rng=ref_rng)
                assert list(cert.steps) == steps, (seed, mode)
                assert core == Poset(left, restrict_order(left, rel))


def test_strong_collapse_core_and_onto_follow_the_reference_loop():
    for seed in SEEDS:
        vs, facets = raw_complex(random.Random(seed))
        k = SimplicialComplex(facets)
        keeps = [set(random.Random(-seed).sample(vs, len(vs) // 2))]
        for lib_rng, ref_rng in rngs(seed):
            core, cert = strong_collapse_core(k, rng=lib_rng)
            steps, left = greedy_dismantle(vs, facets, complex_pairs,
                                           restrict_facets, rng=ref_rng)
            assert list(cert.steps) == steps, seed
            assert core == SimplicialComplex(restrict_facets(left, facets))
            keeps.append(left)
        for keep in keeps:
            for lib_rng, ref_rng in rngs(seed):
                cert = strong_collapse_onto(k, k.restrict(keep), rng=lib_rng)
                ref = greedy_dismantle(vs, facets, complex_pairs,
                                       restrict_facets, rng=ref_rng,
                                       keep=keep)
                assert (cert is None) == (ref is None), seed
                if ref is not None:
                    assert list(cert.steps) == ref[0], seed


def _random_order(seed, elements):
    """A shuffled prefix: some deletions have a witness, some do not."""
    order = list(elements)
    random.Random(seed).shuffle(order)
    return order[:len(order) - 1]


def test_derive_picks_the_reference_first_witness():
    for seed in SEEDS:
        rng = random.Random(seed)
        vs, edges = raw_graph(rng)
        els, rel = raw_poset(rng)
        cvs, facets = raw_complex(rng)
        p = Poset(els, rel)
        cases = [
            (partial(derive_graph_certificate, graph_of(vs, edges)),
             vs, edges, graph_pairs, restrict_edges),
            (partial(derive_poset_certificate, p, mode="strict"),
             els, rel, strict_poset_pairs, restrict_order),
            (partial(derive_poset_certificate, p, mode="weak"),
             els, rel, weak_poset_pairs, restrict_order),
            (partial(derive_collapse_certificate, SimplicialComplex(facets)),
             cvs, facets, complex_pairs, restrict_facets)]
        for derive, elements, data, pairs, restrict in cases:
            # a legal order (the reference core's) and an arbitrary one
            legal, _ = greedy_dismantle(elements, data, pairs, restrict)
            for order in ([x for x, _ in legal],
                          _random_order(seed, elements)):
                want = first_witnesses(elements, data, pairs, restrict,
                                       order)
                cert = derive(order)
                if None in want:
                    assert cert is None, (seed, order)
                else:
                    assert [a for _, a in cert.steps] == want, (seed, order)
