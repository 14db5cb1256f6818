"""Canonical ordering, labels and digests shared by every category."""

from __future__ import annotations

import hashlib

_INT, _STR, _TUPLE = 0, 1, 2


def sort_key(v):
    """Total order over the supported element ids: ints, strings, and
    (nested) tuples of those. Ids of different kinds never compare equal,
    so mixed-id objects still sort deterministically."""
    if isinstance(v, bool):
        raise TypeError("bool is not a supported element id")
    if isinstance(v, int):
        return (_INT, v)
    if isinstance(v, str):
        return (_STR, v)
    if isinstance(v, tuple):
        return (_TUPLE, tuple(sort_key(x) for x in v))
    raise TypeError(f"unsupported element id: {v!r}")


def sorted_ids(ids):
    return tuple(sorted(ids, key=sort_key))


def label(v) -> str:
    """Whitespace-free printable form of an id; tuple ids render as {a,b}."""
    if isinstance(v, bool):
        raise TypeError("bool is not a supported element id")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        if v.split() != [v]:  # empty, or holds whitespace
            raise ValueError(f"id not printable as a token: {v!r}")
        return v
    if isinstance(v, tuple):
        return "{" + ",".join(label(x) for x in v) + "}"
    raise TypeError(f"unsupported element id: {v!r}")


def parse_token(tok: str):
    """Tokens made only of digits parse as ints; everything else is a string."""
    return int(tok) if tok.isdigit() else tok


def to_jsonable(v):
    """Encode an id for JSON; tuples become lists (recursively)."""
    if isinstance(v, tuple):
        return [to_jsonable(x) for x in v]
    return v


def from_jsonable(v):
    """Inverse of to_jsonable: lists become tuples."""
    if isinstance(v, list):
        return tuple(from_jsonable(x) for x in v)
    return v


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
