"""Permutations as index tuples: p[i] is the image of point i."""

from __future__ import annotations

import re
from collections import Counter


class CapExceededError(RuntimeError):
    """An exhaustive routine was asked for more than its size cap allows.
    It lives here because every module with a cap imports perms without a
    cycle; the command line maps it, and only it, to exit 3."""


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p, q) -> tuple[int, ...]:
    """Return the map x -> p[q[x]], i.e. q acts first."""
    return tuple(p[x] for x in q)


def invert(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def is_permutation(seq, n: int) -> bool:
    return len(seq) == n and set(seq) == set(range(n))


def cycle_decomposition(p) -> tuple[tuple[int, ...], ...]:
    """All cycles of p (fixed points included), each starting at its least
    point, ordered by least point."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def cycle_type(p) -> tuple[tuple[int, int], ...]:
    """Multiset of cycle lengths as a sorted tuple of (length, count) pairs."""
    counts = Counter(len(c) for c in cycle_decomposition(p))
    return tuple(sorted(counts.items()))


def cycle_count(p) -> int:
    return len(cycle_decomposition(p))


def perm_parity(p) -> int:
    """0 for even permutations, 1 for odd."""
    return (len(p) - cycle_count(p)) % 2


def format_cycles(p) -> str:
    """Cycle notation over 1-based points, fixed points omitted; 'I' for the
    identity."""
    parts = [
        "(" + ",".join(str(x + 1) for x in cyc) + ")"
        for cyc in cycle_decomposition(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "I"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation like '(1,2)(3,4)' into a permutation of
    range(n). 'I' and '()' denote the identity. Cycles must be disjoint."""
    s = text.strip().replace(" ", "")
    if s in ("I", "()", "1", ""):
        return identity_perm(n)
    if _CYCLE_RE.sub("", s):
        raise ValueError(f"malformed cycle notation: {text!r}")
    mapping = list(range(n))
    touched: set[int] = set()
    for body in _CYCLE_RE.findall(s):
        points = []
        for tok in body.split(","):
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"bad point {tok!r} in {text!r}") from None
            if not 1 <= v <= n:
                raise ValueError(f"point {v} out of range 1..{n} in {text!r}")
            points.append(v - 1)
        if len(points) < 2:
            continue
        if len(set(points)) != len(points) or touched & set(points):
            raise ValueError(f"cycles in {text!r} are not disjoint")
        touched |= set(points)
        for a, b in zip(points, points[1:]):
            mapping[a] = b
        mapping[points[-1]] = points[0]
    return tuple(mapping)
