import itertools
import json
import random

import pytest

from dismantle import (Graph, IndexingFunction, InputError, Poset,
                       ResourceError, clique_poset, clique_to_cell_dismantle,
                       complete_graph, dismantles_onto, enumerate_morphisms,
                       fold_induced_hom_dismantle, hom_cells, hom_face_graph,
                       hom_face_poset, hom_fold_embedding, hom_graph,
                       is_indexing_function, is_stiff, path_graph, phi, psi,
                       replay_poset_certificate, sort_key,
                       verify_certificate, bd)
from generators import random_graph
from oracles import all_cells, clique_route_cells

P3 = path_graph(3)
K3 = complete_graph(3).relabel({0: "a", 1: "b", 2: "c"})
K2 = complete_graph(2)

TABLE = {"u": "aca", "v": "bcb", "w": "bab", "x": "cac", "y": "cbc",
         "z": "aba", "f": "acb", "g": "bca", "h": "bac", "j": "cab",
         "k": "abc", "l": "cba"}


def by_letter():
    ms = {m.name: m for m in enumerate_morphisms(P3, K3)}
    return {letter: ms[json.dumps({str(i): word[i] for i in range(3)},
                                  separators=(",", ":"))]
            for letter, word in TABLE.items()}


def test_indexing_function_validation():
    eta = IndexingFunction.make(P3, K3, {0: {"a", "b"}, 1: {"c"},
                                         2: {"a", "b"}})
    assert eta.values(0) == ("a", "b")
    assert is_indexing_function(P3, K3, {0: {"a"}, 1: {"c"}, 2: {"b"}})
    assert not is_indexing_function(P3, K3, {0: {"a"}, 1: {"a"}, 2: {"b"}})
    with pytest.raises(InputError):
        IndexingFunction.make(P3, K3, {0: set(), 1: {"c"}, 2: {"a"}})
    with pytest.raises(InputError):
        IndexingFunction.make(P3, K3, {0: {"a"}, 1: {"c"}})
    # loops force the value sets to span looped cliques
    loop = Graph([0], loops=[0])
    refl = Graph("ab", edges=[("a", "b")], loops=["a", "b"])
    assert is_indexing_function(loop, refl, {0: {"a", "b"}})
    assert not is_indexing_function(loop, Graph("ab", edges=[("a", "b")]),
                                    {0: {"a"}})


def test_phi():
    by = by_letter()
    cell = phi(P3, K3, [by[c] for c in "uvfg"])
    assert cell.name == '{"0":["a","b"],"1":["c"],"2":["a","b"]}'
    single = phi(P3, K3, [by["f"]])
    assert single.name == '{"0":["a"],"1":["c"],"2":["b"]}'
    assert phi(P3, K3, [by["u"], by["z"]]).name == \
        '{"0":["a"],"1":["b","c"],"2":["a"]}'
    with pytest.raises(InputError):
        phi(P3, K3, [by["u"], by["h"]])  # not a clique
    with pytest.raises(InputError):
        phi(P3, K3, [])


def test_psi():
    by = by_letter()
    eta = IndexingFunction.make(P3, K3, {0: {"a", "b"}, 1: {"c"},
                                         2: {"a", "b"}})
    sel = psi(P3, K3, eta)
    assert {m.name for m in sel} == {by[c].name for c in "uvfg"}
    singleton = phi(P3, K3, [by["f"]])
    assert psi(P3, K3, singleton) == (by["f"],)
    eta2 = IndexingFunction.make(P3, K3, {0: {"a"}, 1: {"b", "c"}, 2: {"a"}})
    assert {m.name for m in psi(P3, K3, eta2)} == {by["u"].name, by["z"].name}


def psi_phi_identities(g, h):
    cells = hom_cells(g, h)
    hg = hom_graph(g, h)
    from dismantle import cliques
    by_name = {m.name: m for m in enumerate_morphisms(g, h)}
    for eta in cells:
        sel = psi(g, h, eta)
        assert phi(g, h, sel).name == eta.name  # phi o psi = id
    for c in cliques(hg):
        ms = [by_name[n] for n in c]
        eta = phi(g, h, ms)
        sat = {m.name for m in psi(g, h, eta)}
        assert set(c) <= sat  # psi o phi >= id
        again = {m.name for m in psi(g, h, phi(
            g, h, [by_name[n] for n in sorted(sat, key=sort_key)]))}
        assert again == sat  # idempotent


def test_psi_phi_identities_exhaustive_pairs():
    psi_phi_identities(P3, K3)
    psi_phi_identities(K2, K3)
    psi_phi_identities(K2, K2)


def test_psi_phi_identities_random_pairs():
    rng = random.Random(41)
    done = 0
    while done < 8:
        g = random_graph(rng, rng.randint(1, 3))
        h = random_graph(rng, rng.randint(1, 3))
        if not enumerate_morphisms(g, h):
            continue
        done += 1
        psi_phi_identities(g, h)


def test_hom_face_poset_census():
    p = hom_face_poset(P3, K3)
    assert len(p) == 30
    cells = hom_cells(P3, K3)
    ranks = {}
    for c in cells:
        r = sum(len(ws) - 1 for _, ws in c.assignment)
        ranks[r] = ranks.get(r, 0) + 1
    assert ranks == {0: 12, 1: 15, 2: 3}
    hexagon = hom_face_poset(K2, K3)
    assert len(hexagon) == 12
    point = Graph([0], loops=[0])
    assert len(hom_face_poset(point, point)) == 1


def raw(g):
    """Vertices and edge list of g, a loop as a pair (v, v)."""
    return g.vertices, list(g.edges()) + [(v, v) for v in g.loops]


def oracle_pairs():
    """Named pairs, an empty source, pairs without morphisms and seeded
    random pairs with unlooped, mixed and looped sources, small enough for
    the oracles (at most 12 morphisms, at most 4096 value-set products)."""
    point = Graph([0], loops=[0])
    pairs = [(P3, K3), (K2, K3), (K2, K2), (point, point),
             (Graph(), K3), (Graph(), Graph()),
             (point, K3), (K3, K2), (P3, Graph())]
    rng = random.Random(42)
    for _ in range(6):
        pairs.append((random_graph(rng, rng.randint(1, 3)),
                      random_graph(rng, rng.randint(1, 3))))
    while len(pairs) < 45:
        g = random_graph(rng, rng.randint(1, 4),
                         loop_p=rng.choice([0.0, 0.4, 1.0]))
        h = random_graph(rng, rng.randint(2, 4), p=0.6, loop_p=0.6)
        if ((2 ** len(h) - 1) ** len(g) <= 4096
                and len(enumerate_morphisms(g, h)) <= 12):
            pairs.append((g, h))
    return pairs


def test_hom_cells_agree_with_bruteforce_oracle():
    # the direct search, the clique route and the raw product of value sets
    for g, h in oracle_pairs():
        cells = hom_cells(g, h)
        assert [c.name for c in cells] == sorted(c.name for c in cells)
        mine = [tuple(frozenset(ws) for _, ws in c.assignment)
                for c in cells]
        assert len(mine) == len(set(mine))
        assert set(mine) == clique_route_cells(*raw(g), *raw(h))
        assert set(mine) == all_cells(*raw(g), *raw(h))


def test_hom_face_poset_equals_pairwise_inclusion_order():
    for g, h in oracle_pairs():
        cells = hom_cells(g, h)
        pairwise = Poset([c.name for c in cells],
                         [(c.name, d.name) for c in cells for d in cells
                          if c != d and c <= d])
        p = hom_face_poset(g, h)
        assert p == pairwise and p.digest() == pairwise.digest()


def test_hom_cell_budgets():
    # P3 -> K3 tries 7 + 12 + 30 value sets and finds 30 cells
    assert len(hom_cells(P3, K3, max_extensions=49, max_cliques=30)) == 30
    for enumerate_cells in (hom_cells, hom_face_poset):
        for budget in ({"max_extensions": 48}, {"max_cliques": 29},
                       {"max_extensions": 1}, {"max_cliques": 1}):
            with pytest.raises(ResourceError):
                enumerate_cells(P3, K3, **budget)


def test_hom_face_graph():
    fg = hom_face_graph(P3, K3)
    assert len(fg) == 30 and fg.is_reflexive()
    hexagon = hom_face_graph(K2, K3)
    assert len(hexagon) == 12 and is_stiff(hexagon)
    point = Graph([0], loops=[0])
    assert len(hom_face_graph(point, point)) == 1


def test_clique_to_cell_dismantle():
    cert = clique_to_cell_dismantle(P3, K3)
    assert len(cert) == 18
    cp = clique_poset(hom_graph(P3, K3))
    ok, _, reason, residual = replay_poset_certificate(cp, cert)
    assert ok, reason
    assert len(residual) == 30
    point = Graph([0], loops=[0])
    assert clique_to_cell_dismantle(point, point).steps == ()


def test_residual_of_clique_to_cell_is_the_cell_poset():
    by = {m.name: m for m in enumerate_morphisms(P3, K3)}
    cert = clique_to_cell_dismantle(P3, K3)
    cp = clique_poset(hom_graph(P3, K3))
    _, _, _, residual = replay_poset_certificate(cp, cert)
    images = {}
    for c in residual.elements:
        images[c] = phi(P3, K3, [by[n] for n in c]).name
    assert len(set(images.values())) == len(residual)
    assert set(images.values()) == {c.name for c in hom_cells(P3, K3)}
    for c, d in itertools.combinations(residual.elements, 2):
        cell_c = dict(json.loads(images[c]))
        cell_d = dict(json.loads(images[d]))
        le = all(set(cell_c[k]) <= set(cell_d[k]) for k in cell_c)
        ge = all(set(cell_d[k]) <= set(cell_c[k]) for k in cell_c)
        assert residual.lt(c, d) == (le and not ge)
        assert residual.lt(d, c) == (ge and not le)


def test_fold_induced_hom_dismantle_source():
    cert = fold_induced_hom_dismantle(P3, K3, "source", 2, 0)
    fg = hom_face_graph(P3, K3)
    assert len(cert) == 18 and verify_certificate(fg, cert)
    embedding = hom_fold_embedding(P3, K3, "source", 2, 0)
    residual = set(fg.vertices) - set(cert.deleted())
    assert residual == set(embedding.values())


def test_fold_induced_hom_dismantle_target():
    h = Graph("abc", edges=[("a", "b"), ("b", "c"), ("a", "c")],
              loops=["a", "b", "c"])
    cert = fold_induced_hom_dismantle(K2, h, "target", "c", "a")
    fg = hom_face_graph(K2, h)
    assert verify_certificate(fg, cert)
    embedding = hom_fold_embedding(K2, h, "target", "c", "a")
    assert set(fg.vertices) - set(cert.deleted()) == set(embedding.values())


def test_fold_induced_requires_domination():
    with pytest.raises(InputError):
        fold_induced_hom_dismantle(P3, K3, "source", 1, 0)
    with pytest.raises(InputError):
        fold_induced_hom_dismantle(P3, K3, "sideways", 2, 0)


def test_bd_of_hom_graph_dismantles_onto_cell_graph():
    # the subdivided morphism graph retracts onto the cell graph: cliques
    # collapse to the cells they span
    for g, h in ((K2, K3), (K2, K2)):
        by = {m.name: m for m in enumerate_morphisms(g, h)}
        bd_hom = bd(hom_graph(g, h))
        image = {tuple(sorted((m.name for m in psi(g, h, cell)),
                              key=sort_key))
                 for cell in hom_cells(g, h)}
        cert = dismantles_onto(bd_hom, image)
        assert cert is not None and verify_certificate(bd_hom, cert)


def test_bd_of_hom_graph_retracts_onto_cells_main_pair():
    by = {m.name: m for m in enumerate_morphisms(P3, K3)}
    bd_hom = bd(hom_graph(P3, K3))
    assert len(bd_hom) == 48
    image = {tuple(sorted((m.name for m in psi(P3, K3, cell)),
                          key=sort_key))
             for cell in hom_cells(P3, K3)}
    cert = dismantles_onto(bd_hom, image)
    assert cert is not None and len(cert) == 18
    assert verify_certificate(bd_hom, cert)
