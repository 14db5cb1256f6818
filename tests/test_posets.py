import random

import pytest

from dismantle import (InputError, MonotoneMap, Poset, PreconditionError,
                       StaleCertificateError, ValidationError, comp,
                       derive_poset_certificate, dismantlable_elements,
                       dominates, fixpoint_dismantle, poset_core,
                       replay_poset_certificate, verify_poset_certificate,
                       weakly_dismantlable_elements, weakly_dominates)
from generators import random_poset
from oracles import all_labeled_posets, transitive_closure

DIAMOND = Poset("abcd", [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])
CHAIN3 = Poset(range(3), [(0, 1), (1, 2)])
ANTICHAIN2 = Poset("xy")


def test_construction_and_closure():
    assert DIAMOND.lt("d", "a")  # transitive closure
    assert DIAMOND.covers() == [("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")]
    with pytest.raises(ValidationError):
        Poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        DIAMOND.lt("a", "q")


def test_dismantlable_elements():
    assert dismantlable_elements(DIAMOND) == [("b", "a", "up"),
                                              ("c", "a", "up")]
    assert {x for x, _, _ in dismantlable_elements(CHAIN3)} == {0, 1, 2}
    assert dismantlable_elements(ANTICHAIN2) == []


def test_weakly_dismantlable_elements():
    weak = weakly_dismantlable_elements(DIAMOND)
    assert ("d", "a") in weak and ("a", "d") in weak
    # strictly dismantlable implies weakly dismantlable
    for x, a, _ in dismantlable_elements(DIAMOND):
        assert (x, a) in weak
    assert weakly_dismantlable_elements(ANTICHAIN2) == []


def test_poset_core():
    for mode in ("strict", "weak"):
        core, cert = poset_core(Poset(range(5), [(i, i + 1) for i in range(4)]),
                                mode)
        assert len(core) == 1
        assert verify_poset_certificate(
            Poset(range(5), [(i, i + 1) for i in range(4)]), cert)
    core, cert = poset_core(DIAMOND, "strict")
    assert len(core) == 1
    core, cert = poset_core(DIAMOND, "weak")
    assert len(core) == 1


def test_fixpoint_dismantle_identity():
    cert = fixpoint_dismantle(CHAIN3, {x: x for x in CHAIN3.elements})
    assert cert.steps == ()


def test_fixpoint_dismantle_increasing_chain():
    cert = fixpoint_dismantle(CHAIN3, {0: 1, 1: 2, 2: 2})
    assert cert.steps == ((1, 2), (0, 2))
    ok, _, _, residual = replay_poset_certificate(CHAIN3, cert)
    assert ok and residual.elements == (2,)


def test_fixpoint_dismantle_on_clique_poset():
    # adjoining a dominating vertex to every clique through the dominated
    # one is monotone and above the identity; residual is its image
    from dismantle import Graph, clique_poset
    g = Graph([0, 1], edges=[(0, 1)], loops=[0, 1])
    cg = clique_poset(g)
    f = {c: (tuple(sorted(set(c) | {1})) if 0 in c else c)
         for c in cg.elements}
    cert = fixpoint_dismantle(cg, f)
    ok, _, _, residual = replay_poset_certificate(cg, cert)
    assert ok
    assert set(residual.elements) == {c for c in cg.elements if f[c] == c}
    assert set(residual.elements) == {f[c] for c in cg.elements}


def test_fixpoint_preconditions():
    with pytest.raises(PreconditionError):
        fixpoint_dismantle(CHAIN3, {0: 1, 1: 1, 2: 1})  # mixed direction
    with pytest.raises(InputError):
        fixpoint_dismantle(CHAIN3, {0: 2, 1: 0, 2: 2})  # not monotone
    with pytest.raises(InputError):
        fixpoint_dismantle(CHAIN3, {0: 0, 1: 1})  # wrong domain
    with pytest.raises(InputError):
        MonotoneMap.make(CHAIN3, {0: 1, 1: 0, 2: 2})
    # a monotone decreasing map is fine
    cert = fixpoint_dismantle(CHAIN3, {0: 0, 1: 0, 2: 2})
    assert cert.steps == ((1, 0),)


def test_fixpoint_residual_equals_fixed_points():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        p = random_poset(rng, rng.randint(1, 6))
        # build a random decreasing idempotent-ish map: send some elements
        # to a smaller one
        mapping = {}
        for x in p.elements:
            down = sorted(p.down_set(x))
            mapping[x] = rng.choice(down) if down and rng.random() < 0.5 else x
        if not p.is_monotone(mapping):
            continue
        checked += 1
        cert = fixpoint_dismantle(p, mapping)
        ok, _, _, residual = replay_poset_certificate(p, cert)
        assert ok
        assert set(residual.elements) == {x for x in p.elements
                                          if mapping[x] == x}


def test_pointwise_bridge_weak_equals_comp_domination_exhaustive():
    # exhaustive on all labeled posets on up to 4 elements
    for n in range(5):
        for rel in all_labeled_posets(n):
            p = Poset(range(n), rel)
            cg = comp(p)
            weak = {(x, a) for x in p.elements for a in p.elements
                    if weakly_dominates(p, a, x)}
            graph_pairs = {(x, a) for x in p.elements for a in p.elements
                           if a != x and dominates(cg, a, x)}
            assert weak == graph_pairs, rel


def test_strict_implies_comp_domination():
    rng = random.Random(5)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 7))
        cg = comp(p)
        for x, a, _ in dismantlable_elements(p):
            assert dominates(cg, a, x)


def test_derive_poset_certificate():
    cert = derive_poset_certificate(DIAMOND, ["b", "c"])
    assert cert is not None and verify_poset_certificate(DIAMOND, cert)
    assert derive_poset_certificate(ANTICHAIN2, ["x"]) is None


def test_replay_rejects_wrong_poset():
    _, cert = poset_core(DIAMOND, "strict")
    with pytest.raises(StaleCertificateError):
        verify_poset_certificate(CHAIN3, cert)


def test_weak_deletion_preserves_strict_core_class():
    # deleting a weakly dismantlable element does not change the homotopy
    # class; observed through isomorphism of the comparability graphs of
    # the strict cores
    from dismantle import are_isomorphic
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        p = random_poset(rng, rng.randint(2, 6))
        weak = weakly_dismantlable_elements(p)
        if not weak:
            continue
        checked += 1
        x, _ = rng.choice(weak)
        core1, _ = poset_core(p, "strict")
        core2, _ = poset_core(p.without(x), "strict")
        assert are_isomorphic(comp(core1), comp(core2)) is not None


def test_restrict_and_without_equal_the_constructor_on_raw_data():
    rng = random.Random(62)
    for _ in range(80):
        n = rng.randint(0, 8)
        lt = [(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.3]
        p = Poset(range(n), lt)
        keep = {x for x in range(n) if rng.random() < 0.6}
        expected = Poset(keep, [(x, y) for x, y in
                                transitive_closure(range(n), lt)
                                if x in keep and y in keep])
        for sub in (p.restrict(keep), p.without(*(set(range(n)) - keep))):
            assert sub == expected and sub.digest() == expected.digest()
            assert all(sub.down_set(x) == expected.down_set(x)
                       for x in expected.elements)
    with pytest.raises(InputError):
        CHAIN3.restrict([0, 7])
    with pytest.raises(InputError):
        CHAIN3.without(7)
