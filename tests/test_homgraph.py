import json
import random

import pytest

from dismantle import (CertificateError, DismantlingCertificate, Graph,
                       InputError, Morphism, ResourceError, are_isomorphic,
                       complete_graph, compose, cycle_graph, dismantle_core,
                       dismantles_onto, enumerate_morphisms, find_dominated,
                       hom_graph, homotopic, identity_morphism, is_stiff,
                       morphisms_adjacent, path_graph, precompose_fold,
                       restrict_source, include_target, retract_target,
                       sdr_homotopy, verify_certificate)
from generators import random_graph
from oracles import all_morphisms

P3 = path_graph(3)
K3 = complete_graph(3).relabel({0: "a", 1: "b", 2: "c"})
K2 = complete_graph(2)

TABLE = {"u": "aca", "v": "bcb", "w": "bab", "x": "cac", "y": "cbc",
         "z": "aba", "f": "acb", "g": "bca", "h": "bac", "j": "cab",
         "k": "abc", "l": "cba"}


def by_letter():
    ms = {m.name: m for m in enumerate_morphisms(P3, K3)}
    out = {}
    for letter, word in TABLE.items():
        name = json.dumps({str(i): word[i] for i in range(3)},
                          separators=(",", ":"))
        out[letter] = ms[name]
    return out


def test_twelve_morphisms_exact_table():
    ms = enumerate_morphisms(P3, K3)
    assert len(ms) == 12
    for m in ms:  # a memoised name leaves equality and hashing alone
        twin = Morphism(m.source_digest, m.target_digest, m.assignment)
        assert m.name == m.name == twin.name
        assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    got = {tuple(m.mapping[i] for i in range(3)) for m in ms}
    assert got == {tuple(word) for word in TABLE.values()}


def test_enumeration_matches_oracle_on_random_pairs():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 3))
        h = random_graph(rng, rng.randint(0, 3))
        oracle = all_morphisms(g.vertices, list(g.edges()) +
                               [(v, v) for v in g.loops],
                               h.vertices, list(h.edges()) +
                               [(v, v) for v in h.loops])
        mine = enumerate_morphisms(g, h)
        assert len(mine) == len(oracle)
        assert {tuple(sorted(m.mapping.items(), key=repr)) for m in mine} == \
            {tuple(sorted(m.items(), key=repr)) for m in oracle}


def test_small_counts():
    assert len(enumerate_morphisms(K2, K2)) == 2
    assert enumerate_morphisms(K2, complete_graph(1)) == []
    with pytest.raises(ResourceError):
        enumerate_morphisms(path_graph(4), complete_graph(4),
                            max_extensions=5)


def test_morphisms_adjacent():
    by = by_letter()
    assert morphisms_adjacent(P3, K3, by["u"], by["f"])
    assert morphisms_adjacent(P3, K3, by["u"], by["u"])
    assert not morphisms_adjacent(P3, K3, by["u"], by["h"])
    with pytest.raises(InputError):
        morphisms_adjacent(P3, P3, by["u"], by["f"])


def test_hom_graph_p3_k3_structure():
    by = by_letter()
    hg = hom_graph(P3, K3)
    assert len(hg) == 12 and hg.is_reflexive()
    # three 4-cliques plus three connecting edges
    for block in ("fguv", "hjwx", "klyz"):
        for i, s in enumerate(block):
            for t in block[i + 1:]:
                assert hg.adjacent(by[s].name, by[t].name)
    for s, t in (("u", "z"), ("v", "w"), ("x", "y")):
        assert hg.adjacent(by[s].name, by[t].name)
    assert len(hg.edges()) == 21


def test_hom_graph_of_looped_point_is_looped_part_of_target():
    point = Graph([0], loops=[0])
    h = Graph("abc", edges=[("a", "b"), ("b", "c")], loops=["a", "b"])
    hg = hom_graph(point, h)
    looped_part = h.induced({"a", "b"})
    assert are_isomorphic(hg, looped_part) is not None
    refl = cycle_graph(4, reflexive=True)
    assert are_isomorphic(hom_graph(point, refl), refl) is not None


def test_hom_graph_to_loopless_point():
    assert len(hom_graph(K2, complete_graph(1))) == 0


def test_homotopic():
    by = by_letter()
    assert homotopic(P3, K3, by["u"], by["h"])  # the graph is connected
    assert homotopic(P3, K3, by["u"], by["u"])


def test_homotopic_is_an_equivalence_on_components():
    g, h = cycle_graph(5), K3
    ms = enumerate_morphisms(g, h)
    pairs = [(a, b) for a in ms[:6] for b in ms[:6]]
    rel = {(a.name, b.name) for a, b in pairs if homotopic(g, h, a, b)}
    for a in ms[:6]:
        assert (a.name, a.name) in rel
    for x, y in list(rel):
        assert (y, x) in rel
    for x, y in list(rel):
        for y2, z in list(rel):
            if y2 == y:
                assert (x, z) in rel


def test_composition_respects_adjacency():
    rng = random.Random(32)
    checked = 0
    while checked < 20:
        g = random_graph(rng, rng.randint(1, 3))
        h = random_graph(rng, rng.randint(1, 3))
        k = random_graph(rng, rng.randint(1, 3))
        gh = enumerate_morphisms(g, h)
        hk = enumerate_morphisms(h, k)
        adj_gh = [(a, b) for a in gh for b in gh
                  if morphisms_adjacent(g, h, a, b)]
        adj_hk = [(c, d) for c in hk for d in hk
                  if morphisms_adjacent(h, k, c, d)]
        if not adj_gh or not adj_hk:
            continue
        checked += 1
        f, f2 = rng.choice(adj_gh)
        t, t2 = rng.choice(adj_hk)
        assert morphisms_adjacent(g, k, compose(t, f), compose(t2, f2))


def test_identity_isolated_in_stiff_graphs():
    for g in (cycle_graph(4, reflexive=True), cycle_graph(5, reflexive=True),
              cycle_graph(5)):
        assert is_stiff(g)
        ident = identity_morphism(g)
        for m in enumerate_morphisms(g, g):
            if m != ident:
                assert not morphisms_adjacent(g, g, m, ident)


def test_sdr_homotopy():
    cert = DismantlingCertificate("graph", P3.digest(), ((2, 0),))
    maps = sdr_homotopy(P3, cert)
    assert [m.mapping for m in maps] == [{0: 0, 1: 1, 2: 2},
                                         {0: 0, 1: 1, 2: 0}]
    k3r = complete_graph(3, reflexive=True)
    cert = DismantlingCertificate("graph", k3r.digest(), ((2, 0), (1, 0)))
    maps = sdr_homotopy(k3r, cert)
    assert len(maps) == 3 and set(maps[-1].mapping.values()) == {0}
    bad = DismantlingCertificate("graph", P3.digest(), ((1, 0),))
    with pytest.raises(CertificateError):
        sdr_homotopy(P3, bad)


def sdr_postconditions(g, cert):
    maps = sdr_homotopy(g, cert)
    residual = set(g.vertices) - set(cert.deleted())
    assert maps[0] == identity_morphism(g)
    for a, b in zip(maps, maps[1:]):
        assert morphisms_adjacent(g, g, a, b)
    for m in maps:
        assert all(m(v) == v for v in residual)
    last = maps[-1].mapping
    assert set(last.values()) <= residual
    assert all(last[v] == v for v in residual)


def test_sdr_postconditions_hold_for_generated_certificates():
    rng = random.Random(33)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        _, cert = dismantle_core(g)
        sdr_postconditions(g, cert)


def test_fold_identification_maps():
    by = by_letter()
    sub = P3.without(2)
    for m in enumerate_morphisms(sub, K3):
        lifted = precompose_fold(P3, K3, 2, 0, m)
        assert lifted.mapping[2] == lifted.mapping[0]
        assert restrict_source(P3, K3, 2, lifted).mapping == m.mapping
    # lifting then restricting is the identity; the lifted image is the
    # residual of the fold-induced dismantling
    image = {precompose_fold(P3, K3, 2, 0, m).name
             for m in enumerate_morphisms(sub, K3)}
    assert image == {by[c].name for c in "uvwxyz"}


def test_fold_induces_hom_graph_dismantling_source_side():
    sub = P3.without(2)
    image = [precompose_fold(P3, K3, 2, 0, m).name
             for m in enumerate_morphisms(sub, K3)]
    hg = hom_graph(P3, K3)
    cert = dismantles_onto(hg, image)
    assert cert is not None and verify_certificate(hg, cert)
    assert len(cert) == 6


def test_fold_induces_hom_graph_dismantling_target_side():
    # fold inside the target: c is dominated by a in the looped triangle
    h = Graph("abc", edges=[("a", "b"), ("b", "c"), ("a", "c")],
              loops=["a", "b", "c"])
    assert ("c", "a") in [(x, w) for x, w in find_dominated(h)]
    g = K2
    sub = h.without("c")
    image = [include_target(g, h, "c", m).name
             for m in enumerate_morphisms(g, sub)]
    hg = hom_graph(g, h)
    cert = dismantles_onto(hg, image)
    assert cert is not None and verify_certificate(hg, cert)
    for m in enumerate_morphisms(g, h):
        folded = retract_target(g, h, "c", "a", m)
        assert "c" not in folded.mapping.values()
