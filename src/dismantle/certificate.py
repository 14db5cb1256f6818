"""Dismantling certificates: replayable deletion sequences with witnesses.

A certificate records, for one of the three categories, an ordered list of
(deleted element, dominating witness) steps together with a digest of the
object it starts from. Verification replays the steps against that object
and checks the domination precondition in every residual stage.

One engine serves all three categories: the greedy search for a core or a
dismantling onto a subobject, the replay, and the completion of a bare
deletion order into a certificate. Each category supplies a ``_Rules``
value saying what its elements, witnesses and deletions are, and which
elements a deletion can affect; weak poset mode uses the graph rules on
the comparability graph.

The greedy search keeps the witness list of every candidate. A deletion
can only change the witnesses of the elements it affects (the neighbours
of a folded vertex, the elements comparable to a beat point, the vertices
of the facets through a collapsed vertex); those lists are recomputed and
every other list just loses the deleted element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .canon import from_jsonable, to_jsonable
from .errors import InputError, StaleCertificateError

CATEGORIES = ("graph", "poset", "complex")
MODES = ("strict", "weak")


@dataclass(frozen=True)
class DismantlingCertificate:
    """Ordered (deleted, witness) steps plus a digest of the start object.

    ``mode`` is only meaningful for poset certificates, where "weak" steps
    are justified by weak domination instead of least/greatest witnesses.
    """

    category: str
    start_digest: str
    steps: tuple = ()
    mode: str = "strict"

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise InputError(f"unknown certificate category: {self.category!r}")
        if self.mode not in MODES:
            raise InputError(f"unknown certificate mode: {self.mode!r}")
        steps = tuple((d, w) for d, w in self.steps)
        object.__setattr__(self, "steps", steps)
        seen = set()
        for d, w in steps:
            if d == w:
                raise InputError(f"witness equals deleted element: {d!r}")
            if d in seen:
                raise InputError(f"element deleted twice: {d!r}")
            seen.add(d)

    def __len__(self):
        return len(self.steps)

    def deleted(self):
        return tuple(d for d, _ in self.steps)

    def replace_step(self, index, deleted=None, witness=None):
        """Copy with one step changed; used by integrity tests."""
        steps = list(self.steps)
        d, w = steps[index]
        steps[index] = (d if deleted is None else deleted,
                        w if witness is None else witness)
        return DismantlingCertificate(self.category, self.start_digest,
                                      tuple(steps), self.mode)

    def to_json_dict(self) -> dict:
        return {
            "category": self.category,
            "mode": self.mode,
            "start_digest": self.start_digest,
            "steps": [[to_jsonable(d), to_jsonable(w)] for d, w in self.steps],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DismantlingCertificate":
        try:
            steps = tuple((from_jsonable(d), from_jsonable(w))
                          for d, w in data["steps"])
            return cls(category=data["category"],
                       start_digest=data["start_digest"],
                       steps=steps,
                       mode=data.get("mode", "strict"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "DismantlingCertificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"certificate is not valid JSON: {exc}") from exc
        if isinstance(data, dict) and "certificate" in data:
            data = data["certificate"]  # accept a whole CLI report
        return cls.from_json_dict(data)


# ---------------------------------------------------------------------------
# the dismantling engine

class _Rules(NamedTuple):
    """How one category dismantles. The functions act on ``lift`` of the
    start object; ``lower`` turns a residual back into the start object's
    category. ``holds`` is the replay check for one step and may accept
    more witnesses than ``witnesses`` lists."""

    category: str
    mode: str
    noun: str                  # "vertex" or "element", for error reasons
    failure: str               # replay reason, formatted with x and a
    elements: Callable         # obj -> elements in canonical order
    has: Callable              # (obj, x) -> is x an element of obj
    witnesses: Callable        # (obj, x) -> witnesses of x, smallest first
    holds: Callable            # (obj, x, a) -> may x go with witness a
    delete: Callable           # (obj, x) -> obj without x
    affected: Callable         # (obj, x) -> elements whose witnesses may
                               # change, beyond losing x, when x goes
    lift: Callable = lambda start: start
    lower: Callable = lambda start, residual: residual


def _pairs(rules: _Rules, obj, xs):
    """All (x, witness) pairs for x in xs, smallest witness first."""
    return [(x, a) for x in xs for a in rules.witnesses(obj, x)]


def _greedy(rules: _Rules, start, rng=None, keep=None):
    """Delete dominated elements until none is left (a core) or, given
    keep, until only keep is left (onto). Each step takes the first pair,
    or ``rng.choice`` over all pairs. Returns (residual, certificate); the
    certificate is None when onto gets stuck before reaching keep."""
    cur = rules.lift(start)
    xs = [x for x in rules.elements(cur) if keep is None or x not in keep]
    ws = {x: rules.witnesses(cur, x) for x in xs}
    steps = []
    while xs:
        if rng is None:
            pair = next(((x, ws[x][0]) for x in xs if ws[x]), None)
        else:
            pairs = [(x, a) for x in xs for a in ws[x]]
            pair = rng.choice(pairs) if pairs else None
        if pair is None:
            break
        x = pair[0]
        steps.append(pair)
        touched = rules.affected(cur, x)
        cur = rules.delete(cur, x)
        xs.remove(x)
        del ws[x]
        for y in xs:
            if y in touched:
                ws[y] = rules.witnesses(cur, y)
            elif x in ws[y]:
                ws[y] = [a for a in ws[y] if a != x]
    residual = rules.lower(start, cur)
    if keep is not None and xs:  # onto got stuck
        return residual, None
    return residual, DismantlingCertificate(
        rules.category, start.digest(), tuple(steps), rules.mode)


def _replay(rules: _Rules, start, cert: DismantlingCertificate):
    """Returns (ok, failed_step, reason, residual); raises
    StaleCertificateError when the start digest differs."""
    if cert.category != rules.category:
        raise InputError(
            f"not a {rules.category} certificate: {cert.category}")
    if cert.start_digest != start.digest():
        raise StaleCertificateError(
            f"certificate does not belong to this {rules.category}")
    cur = rules.lift(start)
    for i, (x, a) in enumerate(cert.steps):
        if not (rules.has(cur, x) and rules.has(cur, a)):
            return (False, i, f"step {i}: {rules.noun} missing from residual",
                    rules.lower(start, cur))
        if not rules.holds(cur, x, a):
            return (False, i, f"step {i}: " + rules.failure.format(x=x, a=a),
                    rules.lower(start, cur))
        cur = rules.delete(cur, x)
    return True, None, None, rules.lower(start, cur)


def _derive(rules: _Rules, start, deletion_order):
    """A certificate with the smallest witness at each step, or None when
    some deletion has no witness at its turn."""
    cur = rules.lift(start)
    steps = []
    for x in deletion_order:
        if not rules.has(cur, x):
            raise InputError(f"unknown {rules.noun}: {x!r}")
        ws = rules.witnesses(cur, x)
        if not ws:
            return None
        steps.append((x, ws[0]))
        cur = rules.delete(cur, x)
    return DismantlingCertificate(rules.category, start.digest(),
                                  tuple(steps), rules.mode)
