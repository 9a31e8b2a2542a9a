"""Reference decision procedures that share no code with the search path.

``brute_force_isotopy_oracle`` decides isotopy of two right loops straight
from the definition, by an exhaustive scan over the conjugating
permutation alpha. It exists to cross-check ``isotopy.are_isotopic`` and
``isotopy.classify``, so this module imports nothing from ``isotopy``.
"""

from __future__ import annotations

import operator

from .perms import CapExceededError, invert
from .rightloops import RightLoop

ORACLE_ORDER_CAP = 7


def _profiles(maps, n: int) -> list[tuple[tuple[int, int], ...]]:
    """The profile of each point p under a set of maps: the sorted pairs
    (fixed points of m, length of the cycle of m through p) over the maps
    m. Conjugating the set by alpha carries the profile of p to alpha(p)."""
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m in maps:
        fixed = sum(i == v for i, v in enumerate(m))
        length = [0] * n
        for start in range(n):
            if length[start]:
                continue
            cycle = [start]
            y = m[start]
            while y != start:
                cycle.append(y)
                y = m[y]
            for y in cycle:
                length[y] = len(cycle)
        for p in range(n):
            pairs[p].append((fixed, length[p]))
    return [tuple(sorted(ps)) for ps in pairs]


def _bijections(candidates, alpha: list[int], used: list[bool], p: int):
    """Complete alpha[:p] in every way to a bijection with alpha[q] in
    candidates[q] for q >= p, yielding alpha itself each time; the caller
    must read it before resuming."""
    if p == len(candidates):
        yield alpha
        return
    for q in candidates[p]:
        if not used[q]:
            used[q] = True
            alpha[p] = q
            yield from _bijections(candidates, alpha, used, p + 1)
            used[q] = False


def _conjugates(getters, alpha: list[int]):
    """alpha o c o alpha^-1 for the column c behind each getter, in order,
    built one at a time as the caller asks for it."""
    back = operator.itemgetter(*invert(alpha))
    # back(g(alpha)) is alpha o c o alpha^-1 for the column c behind g
    for g in getters:
        yield back(g(alpha))


def brute_force_isotopy_oracle(L1: RightLoop, L2: RightLoop) -> bool:
    """Decide isotopy straight from the definition.

    Write R(y) for the right translation x -> x * y, the column y of the
    table, and C1, C2 for the column sets of L1, L2. The defining identity
    of an isotopy (alpha, beta, gamma) reads R2(beta(y)) o alpha =
    gamma o R1(y). Putting y = 0 forces gamma = R2(z) o alpha with
    z = beta(0), so R2(z)^-1 o R2(beta(y)) = alpha o R1(y) o alpha^-1 for
    every y. Since the columns of a right loop are pairwise distinct and
    beta is a bijection, the loops are isotopic exactly when some target
    set R2(z)^-1 o C2 equals alpha o C1 o alpha^-1 for some alpha; beta is
    then read off that equality.

    Conjugation by alpha keeps each map's number of fixed points and
    carries its cycle through p to a cycle of the same length through
    alpha(p), so it carries the profile of each point p in C1 (see
    ``_profiles``) to that of alpha(p) in the conjugate set. A target
    whose multiset of profiles differs from C1's is dropped; this drops
    every target whose sorted fixed-point counts differ, as each profile
    holds them. For each other target, every alpha that maps each point
    onto a point of the same profile is tried: the scan is exhaustive
    over the alpha that can conjugate C1 onto it.

    The set test stops at the first conjugated column of C1 that is not in
    the target (see ``_conjugates``). That is set equality: C1's n columns
    are pairwise distinct (R1(y)(0) = y), conjugation by alpha is injective,
    and every target R2(z)^-1 o C2 holds exactly n maps, so n distinct
    conjugates that all lie in the target make up the whole of it."""
    n = L1.order
    if L2.order != n:
        return False
    if n > ORACLE_ORDER_CAP:
        raise CapExceededError(f"oracle is capped at order {ORACLE_ORDER_CAP}, got {n}")
    if n == 1:
        return True  # [[0]] is the one right loop of order 1
    cols1, cols2 = L1.columns, L2.columns
    profiles1 = _profiles(cols1, n)
    want = sorted(profiles1)
    # operator.itemgetter(*c)(p) is the tuple of p o c
    getters = [operator.itemgetter(*c) for c in cols1]
    getters2 = [operator.itemgetter(*c) for c in cols2]
    # equal target sets are scanned once; a group table gives n equal ones
    targets = dict.fromkeys(frozenset(g(invert(r)) for g in getters2) for r in cols2)
    for target in targets:
        profiles2 = _profiles(target, n)
        if sorted(profiles2) != want:
            continue
        points: dict[tuple, list[int]] = {}
        for q, profile in enumerate(profiles2):
            points.setdefault(profile, []).append(q)
        candidates = [points[profile] for profile in profiles1]
        for alpha in _bijections(candidates, [0] * n, [False] * n, 0):
            if all(map(target.__contains__, _conjugates(getters, alpha))):
                return True
    return False
