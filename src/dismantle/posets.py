"""Finite posets: dismantlable elements, cores, fixed-point dismantlings.

An element is dismantlable when its strict up-set has a least element or its
strict down-set has a greatest element; it is weakly dismantlable when some
comparable element is comparable to everything comparable to it. Weak
deletions match domination in the comparability graph exactly, strict ones
are the classical beat-point deletions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

from .canon import digest_text, label, sort_key, sorted_ids
from .certificate import (DismantlingCertificate, _derive, _greedy, _pairs,
                          _replay, _Rules)
from .errors import InputError, PreconditionError, ValidationError
from .graphs import _RULES as _GRAPH_RULES
from .graphs import _cut


class Poset:
    """Immutable finite poset stored by its full strict order.

    Constructed from any iterable of (x, y) pairs meaning x < y (covers are
    enough); the transitive closure is computed once. A cycle in the input
    raises ValidationError.

    >>> p = Poset("abd", [("d", "b"), ("b", "a")])
    >>> p.lt("d", "a")
    True
    >>> p.covers()
    [('b', 'a'), ('d', 'b')]
    """

    __slots__ = ("_elements", "_above", "_below", "_digest")

    def __init__(self, elements=(), lt=()):
        succ = {}
        for x in elements:
            succ.setdefault(x, set())
        for x, y in lt:
            succ.setdefault(x, set()).add(y)
            succ.setdefault(y, set())
        self._elements = sorted_ids(succ)
        above = {}
        for x in self._elements:
            seen = set()
            stack = list(succ[x])
            while stack:
                y = stack.pop()
                if y not in seen:
                    seen.add(y)
                    stack.extend(succ[y])
            if x in seen:
                raise ValidationError(f"order relation has a cycle at {x!r}")
            above[x] = frozenset(seen)
        self._above = above
        below = {x: set() for x in self._elements}
        for x, ups in above.items():
            for y in ups:
                below[y].add(x)
        self._below = {x: frozenset(s) for x, s in below.items()}
        self._digest = None

    @property
    def elements(self) -> tuple:
        return self._elements

    @property
    def element_set(self) -> frozenset:
        return frozenset(self._elements)

    def __contains__(self, x):
        return x in self._above

    def __len__(self):
        return len(self._elements)

    def _require(self, *xs):
        for x in xs:
            if x not in self._above:
                raise InputError(f"unknown element: {x!r}")

    def lt(self, x, y) -> bool:
        self._require(x, y)
        return y in self._above[x]

    def le(self, x, y) -> bool:
        return x == y or self.lt(x, y)

    def comparable(self, x, y) -> bool:
        return x == y or self.lt(x, y) or self.lt(y, x)

    def up_set(self, x) -> frozenset:
        """Strict up-set {y : y > x}."""
        self._require(x)
        return self._above[x]

    def down_set(self, x) -> frozenset:
        """Strict down-set {y : y < x}."""
        self._require(x)
        return self._below[x]

    def least(self, subset):
        """The least element of a subset, or None. A finite subset has a
        least element exactly when it has a single minimal one."""
        return self._single(subset, self._below)

    def greatest(self, subset):
        return self._single(subset, self._above)

    def _single(self, subset, strictly):
        """The one element a of subset whose strictly[a] misses subset (the
        single minimal element when strictly maps to down-sets), or None
        when there is not exactly one."""
        subset = frozenset(subset)
        self._require(*subset)
        found = None
        for a in subset:
            if strictly[a].isdisjoint(subset):
                if found is not None:
                    return None
                found = a
        return found

    def minimal(self, subset=None):
        pool = self._elements if subset is None else sorted_ids(subset)
        pool_set = set(pool)
        return [x for x in pool if not (self._below[x] & pool_set)]

    def maximal(self, subset=None):
        pool = self._elements if subset is None else sorted_ids(subset)
        pool_set = set(pool)
        return [x for x in pool if not (self._above[x] & pool_set)]

    def atoms(self) -> tuple:
        """Elements with empty strict down-set."""
        return tuple(x for x in self._elements if not self._below[x])

    def covers(self):
        """Covering pairs (x, y): x < y with nothing strictly between."""
        out = []
        for x in self._elements:
            for y in self._above[x]:
                if not any(z in self._above[x] for z in self._below[y]):
                    out.append((x, y))
        out.sort(key=lambda p: (sort_key(p[0]), sort_key(p[1])))
        return out

    def restrict(self, keep) -> "Poset":
        """The subposet on keep."""
        keep = frozenset(keep)
        self._require(*keep)
        return self._drop(self.element_set - keep)

    def without(self, *xs) -> "Poset":
        self._require(*xs)
        return self._drop(frozenset(xs))

    def _drop(self, gone) -> "Poset":
        """This poset without the elements in gone. A strict order
        restricted to a subset is still transitively closed, so its up- and
        down-sets are cut, not recomputed."""
        sub = Poset.__new__(Poset)
        sub._elements = tuple(filterfalse(gone.__contains__, self._elements))
        sub._above = _cut(self._above, gone, self._below)
        sub._below = _cut(self._below, gone, self._above)
        sub._digest = None
        return sub

    def is_monotone(self, mapping) -> bool:
        return all(self.le(mapping[x], mapping[y])
                   for x in self._elements for y in self._above[x])

    def to_text(self) -> str:
        lines = [f"p {label(x)}" for x in self._elements]
        lines += [f"c {label(x)} {label(y)}" for x, y in self.covers()]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        if self._digest is None:
            self._digest = digest_text("poset\n" + self.to_text())
        return self._digest

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self._elements == other._elements and self._above == other._above

    def __hash__(self):
        return hash(self.digest())

    def __repr__(self):
        return f"Poset({len(self._elements)} elements)"


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving self-map, tied to its poset by digest."""

    source_digest: str
    assignment: tuple

    @classmethod
    def make(cls, p: Poset, mapping) -> "MonotoneMap":
        mapping = dict(mapping)
        if set(mapping) != p.element_set:
            raise InputError("map domain differs from the poset")
        for v in mapping.values():
            p._require(v)
        if not p.is_monotone(mapping):
            raise InputError("map does not preserve the order")
        items = tuple(sorted(mapping.items(), key=lambda kv: sort_key(kv[0])))
        return cls(p.digest(), items)

    @property
    def mapping(self) -> dict:
        return dict(self.assignment)

    def __call__(self, x):
        return self.mapping[x]


# ---------------------------------------------------------------------------
# dismantlable elements

def _strict_witnesses(p: Poset, x):
    """The least element of the strict up-set of x, else the greatest of
    its strict down-set, as a list of at most one witness."""
    a = p.least(p.up_set(x))
    if a is None:
        a = p.greatest(p.down_set(x))
    return [] if a is None else [a]


def _comp(p: Poset):
    from .functors import comp  # functors imports this module
    return comp(p)


_STRICT_RULES = _Rules(
    "poset", "strict", "element", "{x!r} not strictly dominated by {a!r}",
    elements=lambda p: p.elements,
    has=lambda p, x: x in p,
    witnesses=_strict_witnesses,
    holds=lambda p, x, a: (p.least(p.up_set(x)) == a
                           or p.greatest(p.down_set(x)) == a),
    delete=lambda p, x: p.without(x),
    affected=lambda p, x: p.up_set(x) | p.down_set(x))

# a weak deletion is a domination in the comparability graph
_WEAK_RULES = _GRAPH_RULES._replace(
    category="poset", mode="weak", noun="element",
    failure="{x!r} not weakly dominated by {a!r}",
    lift=_comp, lower=lambda p, g: p.restrict(g.vertices))


def _rules(mode: str) -> _Rules:
    if mode not in ("strict", "weak"):
        raise InputError(f"unknown mode: {mode!r}")
    return _STRICT_RULES if mode == "strict" else _WEAK_RULES


def dismantlable_elements(p: Poset):
    """Triples (x, witness, direction). Direction "up" means the strict
    up-set of x has the witness as least element, "down" the dual; when both
    apply the up witness is the one reported."""
    return [(x, a, "up" if p.lt(x, a) else "down")
            for x, a in _pairs(_STRICT_RULES, p, p.elements)]


def weakly_dominates(p: Poset, a, x) -> bool:
    """True iff a is comparable to x and to everything comparable to x."""
    p._require(a, x)
    if a == x or not p.comparable(a, x):
        return False
    return all(p.comparable(a, y) for y in (p.up_set(x) | p.down_set(x)))


def weakly_dismantlable_elements(p: Poset):
    """All pairs (x, a) with a weakly dominating x, ascending in x then a."""
    return _pairs(_WEAK_RULES, _comp(p), p.elements)


def poset_core(p: Poset, mode: str = "strict", rng=None):
    """Greedily delete (weakly) dismantlable elements until none remain."""
    return _greedy(_rules(mode), p, rng)


# ---------------------------------------------------------------------------
# constructive fixed-point dismantling

def fixpoint_dismantle(p: Poset, f) -> DismantlingCertificate:
    """Dismantle p onto the fixed points of a monotone self-map comparable
    to the identity.

    When f <= id, repeatedly delete a minimal non-fixed element x: f(x) is
    then the greatest element below x, so the deletion is legal; f is
    adjusted to avoid the deleted value and the loop continues until only
    fixed points remain. The case f >= id is dual (maximal elements, least
    witnesses). The residual equals Fix(f) exactly.
    """
    if isinstance(f, MonotoneMap):
        if f.source_digest != p.digest():
            raise InputError("monotone map belongs to a different poset")
        mapping = f.mapping
    else:
        mapping = dict(f)
        MonotoneMap.make(p, mapping)  # validates domain and monotonicity
    decreasing = all(p.le(mapping[x], x) for x in p.elements)
    increasing = all(p.le(x, mapping[x]) for x in p.elements)
    if not (decreasing or increasing):
        raise PreconditionError("map is not comparable to the identity")

    steps = []
    cur = p
    while True:
        non_fixed = [x for x in cur.elements if mapping[x] != x]
        if not non_fixed:
            break
        pool = (cur.minimal(non_fixed) if decreasing
                else cur.maximal(non_fixed))
        x = pool[0]
        steps.append((x, mapping[x]))
        cur = cur.without(x)
        fx = mapping[x]
        mapping = {y: (fx if mapping[y] == x else mapping[y])
                   for y in cur.elements}
    return DismantlingCertificate("poset", p.digest(), tuple(steps))


# ---------------------------------------------------------------------------
# certificate replay

def replay_poset_certificate(p: Poset, cert: DismantlingCertificate):
    """Replay a poset certificate in its mode. Returns (ok, failed_step,
    reason, residual)."""
    return _replay(_rules(cert.mode), p, cert)


def verify_poset_certificate(p: Poset, cert: DismantlingCertificate) -> bool:
    ok, _, _, _ = replay_poset_certificate(p, cert)
    return ok


def derive_poset_certificate(p: Poset, deletion_order, mode: str = "strict"):
    """Complete a bare deletion order into a certificate by choosing a legal
    witness at each step (up-set witness preferred, then down-set; smallest
    weak dominator in weak mode); None when some step is illegal."""
    return _derive(_rules(mode), p, deletion_order)
