"""Abstract simplicial complexes: links, cones, strong collapses.

A vertex is dominated when its link is a simplicial cone; deleting it is an
elementary strong collapse. A single-vertex complex counts as a cone (its
vertex is the apex), the empty complex does not.
"""

from __future__ import annotations

import bisect
import itertools

from .canon import digest_text, label, sort_key, sorted_ids
from .certificate import (DismantlingCertificate, _derive, _greedy, _pairs,
                          _replay, _Rules)
from .errors import DominationError, InputError, ValidationError


def _canon_simplex(s):
    t = sorted_ids(s)
    if len(set(t)) != len(t):
        raise InputError(f"repeated vertex in simplex: {s!r}")
    return t


def _simplex_order(s):
    return len(s), sort_key(s)


class SimplicialComplex:
    """Immutable finite abstract complex stored by its facets.

    The constructor demands an antichain of nonempty facets; use
    ``from_simplices`` to build from an arbitrary family (non-maximal
    members are pruned). The full simplex set is materialized lazily and
    memoized.

    >>> k = SimplicialComplex([("a", "b", "c")])
    >>> len(k.simplices())
    7
    """

    __slots__ = ("_facets", "_vertices", "_vertex_set", "_simplices",
                 "_digest")

    def __init__(self, facets=()):
        fs = sorted({_canon_simplex(f) for f in facets}, key=_simplex_order)
        for f in fs:
            if not f:
                raise ValidationError("empty facet")
        for a, b in itertools.combinations(fs, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                raise ValidationError(
                    f"facets are not an antichain: {a!r} and {b!r}")
        self._facets = tuple(fs)
        self._vertices = sorted_ids({v for f in fs for v in f})
        self._vertex_set = frozenset(self._vertices)
        self._simplices = None
        self._digest = None

    @classmethod
    def from_simplices(cls, simplices) -> "SimplicialComplex":
        """Build from any family of simplices, keeping the maximal ones."""
        simps = sorted({_canon_simplex(s) for s in simplices if tuple(s)},
                       key=len, reverse=True)
        facets = []
        for s in simps:
            if not any(set(s) <= set(f) for f in facets):
                facets.append(s)
        return cls(facets)

    @property
    def facets(self) -> tuple:
        return self._facets

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    def __len__(self):
        return len(self.simplices())

    def __bool__(self):
        return bool(self._facets)

    def _require_vertex(self, x):
        if x not in self._vertex_set:
            raise InputError(f"unknown vertex: {x!r}")

    def simplices(self) -> tuple:
        """All nonempty simplices, ordered by dimension then lexicographic."""
        if self._simplices is None:
            acc = set()
            for f in self._facets:
                for r in range(1, len(f) + 1):
                    acc.update(itertools.combinations(f, r))
            self._simplices = tuple(sorted(acc, key=_simplex_order))
        return self._simplices

    def has_simplex(self, s) -> bool:
        return _canon_simplex(s) in set(self.simplices())

    def link(self, x) -> "SimplicialComplex":
        """Simplices avoiding x whose union with {x} is a simplex."""
        self._require_vertex(x)
        faces = [tuple(v for v in f if v != x)
                 for f in self._facets if x in f]
        return SimplicialComplex.from_simplices(f for f in faces if f)

    def open_star(self, x) -> tuple:
        """Simplices containing x; a plain simplex set, not a complex."""
        self._require_vertex(x)
        return tuple(s for s in self.simplices() if x in s)

    def star(self, x) -> "SimplicialComplex":
        self._require_vertex(x)
        return SimplicialComplex(f for f in self._facets if x in f)

    def delete(self, x) -> "SimplicialComplex":
        """The complex of simplices avoiding x.

        Its facets are the facets avoiding x, and each facet through x
        minus x unless that is empty or lies in a facet avoiding x. These
        are an antichain already, so they are cut from this complex's
        sorted facets and not checked again."""
        self._require_vertex(x)
        kept = [f for f in self._facets if x not in f]
        facets = list(kept)
        for f in self._facets:
            if x in f and len(f) > 1:
                cut = tuple(v for v in f if v != x)
                cut_set = set(cut)
                if not any(len(g) > len(cut) and cut_set.issubset(g)
                           for g in kept):
                    bisect.insort(facets, cut, key=_simplex_order)
        sub = SimplicialComplex.__new__(SimplicialComplex)
        sub._facets = tuple(facets)
        sub._vertices = tuple(v for v in self._vertices if v != x)
        sub._vertex_set = self._vertex_set - {x}
        sub._simplices = None
        sub._digest = None
        return sub

    def restrict(self, keep) -> "SimplicialComplex":
        keep = frozenset(keep)
        faces = [tuple(v for v in f if v in keep) for f in self._facets]
        return SimplicialComplex.from_simplices(f for f in faces if f)

    def cone_apexes(self) -> tuple:
        """Vertices contained in every facet (empty for the empty complex)."""
        if not self._facets:
            return ()
        common = set(self._facets[0])
        for f in self._facets[1:]:
            common &= set(f)
        return sorted_ids(common)

    def is_simplicial_cone(self):
        """The smallest apex when the complex is a cone, else None."""
        apexes = self.cone_apexes()
        return apexes[0] if apexes else None

    def to_text(self) -> str:
        lines = [f"f {' '.join(label(v) for v in f)}" for f in self._facets]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        if self._digest is None:
            self._digest = digest_text("complex\n" + self.to_text())
        return self._digest

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self):
        return hash(self.digest())

    def __repr__(self):
        return (f"SimplicialComplex({len(self._vertices)} vertices, "
                f"{len(self._facets)} facets)")


# ---------------------------------------------------------------------------
# domination and strong collapses

def _apexes(k: SimplicialComplex, x):
    """The vertices other than x lying in every facet through x, in
    order: the cone apexes of the link of x, found without building it."""
    k._require_vertex(x)
    through = [f for f in k.facets if x in f]
    common = set(through[0]).intersection(*through[1:])
    return [v for v in through[0] if v != x and v in common]


_RULES = _Rules(
    "complex", "strict", "vertex",
    "link of {x!r} is not a cone with apex {a!r}",
    elements=lambda k: k.vertices,
    has=lambda k, x: x in k.vertex_set,
    witnesses=_apexes,
    holds=lambda k, x, a: a in _apexes(k, x),
    delete=lambda k, x: k.delete(x),
    affected=lambda k, x: {v for f in k.facets if x in f for v in f})


def dominated_vertices(k: SimplicialComplex):
    """All pairs (x, a) where the link of x is a cone with apex a."""
    return _pairs(_RULES, k, k.vertices)


def strong_collapse_core(k: SimplicialComplex, rng=None):
    """Greedy deletion of dominated vertices down to a minimal complex."""
    return _greedy(_RULES, k, rng)


def strong_collapse_onto(k: SimplicialComplex, sub: SimplicialComplex,
                         rng=None):
    """Greedy strong collapse of k onto a vertex-deletion subcomplex;
    returns a certificate or None. The target must be the subcomplex
    induced on its own vertex set (what iterated vertex deletions give)."""
    target = sub.vertex_set
    if not target <= k.vertex_set or k.restrict(target) != sub:
        raise InputError("target is not an induced vertex-deletion "
                         "subcomplex")
    return _greedy(_RULES, k, rng, target)[1]


def star_deletion_order(k: SimplicialComplex, x, a):
    """The order in which the simplices containing a dominated vertex x can
    be deleted, one by one, inside the face graph of k.

    Simplices avoiding the apex go first, by decreasing dimension, each
    witnessed by itself plus the apex; then the simplices containing the
    apex by increasing dimension, each witnessed by itself minus x. Returns
    (simplex, witness) pairs; replayed in the face graph they form a valid
    dismantling onto the face graph of k minus x.
    """
    if not _RULES.holds(k, x, a):
        raise DominationError(f"{x!r} is not dominated by {a!r}")
    star = k.open_star(x)
    gamma_plain = sorted((s for s in star if a not in s),
                         key=lambda s: (-len(s), sort_key(s)))
    gamma_apex = sorted((s for s in star if a in s),
                        key=lambda s: (len(s), sort_key(s)))
    steps = [(s, sorted_ids(s + (a,))) for s in gamma_plain]
    steps += [(s, tuple(v for v in s if v != x)) for s in gamma_apex]
    return steps


# ---------------------------------------------------------------------------
# certificate replay

def replay_collapse_certificate(k: SimplicialComplex,
                                cert: DismantlingCertificate):
    """Replay a strong-collapse certificate. Returns (ok, failed_step,
    reason, residual)."""
    return _replay(_RULES, k, cert)


def verify_collapse_certificate(k: SimplicialComplex,
                                cert: DismantlingCertificate) -> bool:
    ok, _, _, _ = replay_collapse_certificate(k, cert)
    return ok


def derive_collapse_certificate(k: SimplicialComplex, deletion_order):
    """Complete a bare vertex deletion order into a collapse certificate
    (smallest apex at each step), or None when a step is illegal."""
    return _derive(_RULES, k, deletion_order)
