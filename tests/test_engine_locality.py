"""The locality the greedy engine's witness worklist rests on.

After a deletion the engine recomputes the witnesses of the affected
elements only; every other element keeps its list minus the deleted
element. These tests check that rule on every deletion of seeded random
objects in each category, check that the engine does no more witness work
than that, and pin the fast primitives the rules use (complex deletion,
least and greatest elements) to their reference definitions.
"""

import random

import pytest

from dismantle import InputError, Poset, SimplicialComplex, comp
from dismantle.certificate import _greedy
from dismantle.complexes import _RULES as COMPLEX_RULES
from dismantle.graphs import _RULES as GRAPH_RULES
from dismantle.posets import _STRICT_RULES, _WEAK_RULES

from generators import random_complex, random_graph, random_poset
from oracles import transitive_closure

SEEDS = range(30)


def objects(seed):
    """(name, rules, object the rules act on) for one seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    p = random_poset(rng, n, p=rng.choice([0.15, 0.3, 0.5]))
    return [
        ("looped graph", GRAPH_RULES, random_graph(rng, n, loop_p=1.0)),
        ("loopless graph", GRAPH_RULES, random_graph(rng, n, loop_p=0.0)),
        ("mixed graph", GRAPH_RULES, random_graph(rng, n, loop_p=0.5)),
        ("strict poset", _STRICT_RULES, p),
        ("weak poset", _WEAK_RULES, comp(p)),
        ("complex", COMPLEX_RULES, random_complex(rng, min(n, 8))),
    ]


def test_deletion_changes_only_the_affected_witness_lists():
    for seed in SEEDS:
        for name, rules, obj in objects(seed):
            elements = rules.elements(obj)
            before = {y: list(rules.witnesses(obj, y)) for y in elements}
            for x in elements:
                after = rules.delete(obj, x)
                near = set(rules.affected(obj, x)) | {x}
                for y in elements:
                    if y not in near:
                        want = [a for a in before[y] if a != x]
                        assert list(rules.witnesses(after, y)) == want, \
                            (seed, name, x, y)


def test_greedy_recomputes_witnesses_only_for_affected_candidates():
    for seed in SEEDS:
        for name, rules, obj in objects(seed):
            for rng in (None, random.Random(seed)):
                calls = []

                def witnesses(o, y, calls=calls, rules=rules):
                    calls.append(y)
                    return rules.witnesses(o, y)

                # weak poset rules act on comp(p) here, so no lift
                counted = rules._replace(witnesses=witnesses,
                                         lift=lambda s: s,
                                         lower=lambda s, r: r)
                _, cert = _greedy(counted, obj, rng)
                left = list(rules.elements(obj))
                want = list(left)
                cur = obj
                for x, _ in cert.steps:
                    near = rules.affected(cur, x)
                    cur = rules.delete(cur, x)
                    left.remove(x)
                    want += [y for y in left if y in near]
                assert calls == want, (seed, name)


def test_complex_delete_equals_the_constructor_on_the_cut_faces():
    for seed in SEEDS:
        k = random_complex(random.Random(seed), random.Random(-seed)
                           .randint(1, 8))
        for x in k.vertices:
            cut = k.delete(x)
            ref = SimplicialComplex.from_simplices(
                tuple(v for v in f if v != x) for f in k.facets)
            assert cut == ref and cut.digest() == ref.digest(), (seed, x)
            assert cut.facets == ref.facets
            assert cut.vertices == ref.vertices
            assert cut.vertex_set == ref.vertex_set
            assert cut.simplices() == ref.simplices()


def raw_extreme(subset, rel, least):
    """The element of subset below (or above) all the others, by pairs."""
    found = [a for a in subset
             if all(b == a or ((a, b) if least else (b, a)) in rel
                    for b in subset)]
    return found[0] if found else None


def test_least_and_greatest_equal_the_all_pairs_definition():
    rng = random.Random(7)
    no_extreme = 0
    for _ in range(200):
        n = rng.randint(0, 9)
        lt = [(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.35]
        rel = transitive_closure(range(n), lt)
        p = Poset(range(n), lt)
        subsets = [[], list(range(n))]
        subsets += [rng.sample(range(n), rng.randint(0, n))
                    for _ in range(6)]
        for s in subsets:
            for least in (True, False):
                got = p.least(s) if least else p.greatest(s)
                assert got == raw_extreme(s, rel, least), (n, lt, s, least)
                no_extreme += s != [] and got is None
    assert no_extreme > 0  # subsets with no least or greatest element
    antichain = Poset([0, 1])
    assert antichain.least([0, 1]) is None
    assert antichain.greatest([0, 1]) is None
    assert antichain.least([]) is None and antichain.greatest([]) is None
    with pytest.raises(InputError):
        antichain.least([0, 7])
    with pytest.raises(InputError):
        antichain.greatest([7])
