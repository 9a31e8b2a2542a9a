"""Isomorphism and isotopy of right loops.

An isotopy from L1 to L2 is a triple of bijections (alpha, beta, gamma)
with alpha(x) *2 beta(y) = gamma(x *1 y); an isomorphism is the diagonal
case alpha = beta = gamma. Every isotopy factors through a principal
isotope, so the decision procedure searches principal isotopes of the
source and composes the factorization into an explicit witness, which is
re-verified against the defining identity before being returned.

``brute_force_isotopy_oracle`` and ``ORACLE_ORDER_CAP`` are re-exported
from ``reference``, which decides the same question from the raw
definition, shares no code with the search path and exists to cross-check
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial

from .perms import (
    CapExceededError,
    compose,
    identity_perm,
    invert,
    is_permutation,
)
from .reference import ORACLE_ORDER_CAP, brute_force_isotopy_oracle  # re-exported
from .rightloops import (
    RightLoop,
    _cycle_lengths,
    _trusted_right_loop,
    left_nonsingular_elements,
)

AUTOTOPY_ORDER_CAP = 8


class NotLeftNonsingularError(ValueError):
    """The requested construction needs a bijective row at this element."""


@dataclass(frozen=True, slots=True)
class IsotopyWitness:
    """A verified triple of bijections alpha, beta, gamma on positions."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "IsotopyWitness":
        e = identity_perm(n)
        return cls(e, e, e)

    def verify(self, source: RightLoop, target: RightLoop) -> bool:
        """Check bijectivity and alpha(x) * beta(y) = gamma(x * y) on all
        pairs."""
        n = source.order
        if target.order != n:
            return False
        if not all(is_permutation(p, n) for p in (self.alpha, self.beta, self.gamma)):
            return False
        return _isotopy_identity(
            source.table, target.table, self.alpha, self.beta, self.gamma
        )

    def inverse(self) -> "IsotopyWitness":
        return IsotopyWitness(invert(self.alpha), invert(self.beta), invert(self.gamma))

    def then(self, other: "IsotopyWitness") -> "IsotopyWitness":
        """Composite witness: self from A to B, then other from B to C."""
        return IsotopyWitness(
            compose(other.alpha, self.alpha),
            compose(other.beta, self.beta),
            compose(other.gamma, self.gamma),
        )

    def is_isomorphism(self) -> bool:
        return self.alpha == self.beta == self.gamma


def _isotopy_identity(t1, t2, a, b, g) -> bool:
    """alpha(x) * beta(y) = gamma(x * y) for all x, y: the maps a, b, g
    carry the table t1 onto the table t2 of the same order."""
    n = len(t1)
    return all(t2[a[x]][b[y]] == g[t1[x][y]] for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# isomorphism search


def _propagate(t1, t2, f, used, done, queue, sig1, sig2) -> bool:
    """Close a partial map under f(a*b) = f(a)*f(b); returns False on any
    conflict. Every assigned point is in done, whose pairs have all been
    checked, or in queue; a point leaves queue for done once its pairs with
    itself and with done are checked, and each forced image joins queue."""
    while queue:
        a = queue.pop()
        done.append(a)
        fa = f[a]
        row1, row2 = t1[a], t2[fa]
        for b in done:
            fb = f[b]
            # a*b must go to f(a)*f(b), and b*a to f(b)*f(a)
            for v, w in ((row1[b], row2[fb]), (t1[b][a], t2[fb][fa])):
                fv = f[v]
                if fv >= 0:
                    if fv != w:
                        return False
                elif used[w] or sig1[v] != sig2[w]:
                    return False
                else:
                    f[v] = w
                    used[w] = True
                    queue.append(v)
    return True


def _extend(t1, t2, sig1, sig2, candidates, f, used, done):
    """Yield every isomorphism that extends the closed partial map f, by
    assigning its least unassigned point each candidate in turn. A
    module-level generator, not a closure over the search's state, so a
    finished search leaves no reference cycle behind."""
    if -1 not in f:
        final = tuple(f)
        if _isotopy_identity(t1, t2, final, final, final):
            yield final
        return
    x = f.index(-1)
    for c in candidates[x]:
        if used[c]:
            continue
        f2, used2, done2 = f[:], used[:], done[:]
        f2[x] = c
        used2[c] = True
        if _propagate(t1, t2, f2, used2, done2, [x], sig1, sig2):
            yield from _extend(t1, t2, sig1, sig2, candidates, f2, used2, done2)


def _isomorphisms(t1, t2, sig1, sig2):
    """Yield every isomorphism from the table t1 onto the table t2 (as an
    image tuple, f[0] = 0), given the tables' element signatures."""
    n = len(t1)
    if sig1[0] != sig2[0]:
        return
    positions: dict[tuple, list[int]] = {}
    for c, sig in enumerate(sig2):
        positions.setdefault(sig, []).append(c)
    candidates = [positions.get(sig, ()) for sig in sig1]
    f0, used0, done0 = [-1] * n, [False] * n, []
    f0[0] = 0
    used0[0] = True
    if _propagate(t1, t2, f0, used0, done0, [0], sig1, sig2):
        yield from _extend(t1, t2, sig1, sig2, candidates, f0, used0, done0)


def isomorphisms(L1: RightLoop, L2: RightLoop):
    """Yield every isomorphism f: L1 -> L2 (as an image tuple, f[0] = 0)."""
    if L2.order != L1.order:
        return
    sig1, sig2 = L1.signatures, L2.signatures
    if L2 is L1 or sorted(sig1) == sorted(sig2):
        yield from _isomorphisms(L1.table, L2.table, sig1, sig2)


def are_isomorphic(L1: RightLoop, L2: RightLoop) -> tuple[int, ...] | None:
    """First isomorphism found, or None."""
    return next(isomorphisms(L1, L2), None)


# ---------------------------------------------------------------------------
# principal isotopes


def principal_isotope_with_relabel(
    loop: RightLoop, a: int, b: int
) -> tuple[RightLoop, IsotopyWitness]:
    """The principal isotope x . y = R(b)^-1(x) * L(a)^-1(y), relabeled by
    the swap s of its identity a*b with 0. Returns (isotope, principal),
    where principal = (s o R(b), s o L(a), s) is the isotopy from loop onto
    the isotope."""
    n = loop.order
    if a not in range(n) or len(set(loop.table[a])) != n:
        raise NotLeftNonsingularError(f"element {a} is not left non-singular")
    if b not in range(n):
        raise ValueError(f"element {b} is out of range 0..{n - 1}")
    t = loop.table
    e = t[a][b]
    swap = list(range(n))
    swap[0], swap[e] = e, 0
    principal = IsotopyWitness(
        tuple(swap[v] for v in loop.columns[b]),
        tuple(swap[v] for v in t[a]),
        tuple(swap),
    )
    # the isotope is the image of the table: alpha(x) . beta(y) = s(x * y);
    # it is a right loop with identity 0 by construction, so it is not
    # validated again
    rows = [[0] * n for _ in range(n)]
    for ax, tx in zip(principal.alpha, t):
        row = rows[ax]
        for by, v in zip(principal.beta, tx):
            row[by] = swap[v]
    return _trusted_right_loop(tuple(map(tuple, rows))), principal


def _principal_signatures(loop: RightLoop):
    """Yield (a, b, signatures) for each left non-singular a, then each b,
    where signatures() reads off loop the signatures of
    principal_isotope_with_relabel(loop, a, b)'s isotope without building
    it.

    With s the swap of 0 and a*b, element u of the isotope is alpha(x) =
    beta(y) for x = R(b)^-1(s(u)) and y = L(a)^-1(s(u)), and u . v =
    s(x * L(a)^-1(s(v))). So the row of u holds s of the values of row x,
    with the same multiplicities; the column of u is R(y) o R(b)^-1
    conjugated by s, with the same cycle lengths; and u is idempotent
    exactly when s(x * y) = u. Every a shares the cycle lengths of
    R(y) o R(b)^-1, so they are kept by (y, b) while the generator runs."""
    t, columns, sigs = loop.table, loop.columns, loop.signatures
    lengths_of: dict[tuple[int, int], tuple[int, ...]] = {}

    def signatures(a: int, b: int) -> list:
        e = t[a][b]
        swap = list(range(loop.order))
        swap[0], swap[e] = e, 0
        row_inv, column_inv = invert(t[a]), invert(columns[b])
        result = []
        for u, su in enumerate(swap):
            x, y = column_inv[su], row_inv[su]
            lengths = lengths_of.get((y, b))
            if lengths is None:
                column = columns[y]
                lengths = lengths_of[y, b] = _cycle_lengths(
                    [column[w] for w in column_inv]
                )
            result.append((sigs[x][0], lengths, swap[t[x][y]] == u))
        return result

    for a in left_nonsingular_elements(loop):
        for b in range(loop.order):
            yield a, b, partial(signatures, a, b)


def _isotopies(L1: RightLoop, L2: RightLoop):
    """Every isotopy from L1 onto L2, a loop of the same order, repeats
    possible: a principal isotopy of L1, then the inverse of an isomorphism
    from L2 onto that isotope. Each isotope's signatures are read off L1,
    and the isotope is built only when they sort to L2's."""
    sig2 = L2.signatures
    key = sorted(sig2)
    for a, b, signatures in _principal_signatures(L1):
        sig = signatures()
        if sorted(sig) != key:
            continue
        isotope, principal = principal_isotope_with_relabel(L1, a, b)
        for f in _isomorphisms(L2.table, isotope.table, sig2, sig):
            f_inv = invert(f)
            yield principal.then(IsotopyWitness(f_inv, f_inv, f_inv))


def are_isotopic(L1: RightLoop, L2: RightLoop) -> IsotopyWitness | None:
    """The first isotopy from L1 onto L2, verified, or None. Equal tables
    are related by the identity at once."""
    n = L1.order
    if L2.order != n:
        return None
    if L1.table == L2.table:
        return _verified(IsotopyWitness.identity(n), L1, L2)
    witness = next(_isotopies(L1, L2), None)
    return None if witness is None else _verified(witness, L1, L2)


def _verified(witness: IsotopyWitness, source: RightLoop, target: RightLoop):
    if not witness.verify(source, target):
        raise AssertionError("isotopy witness failed verification")
    return witness


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassPartition:
    """Classes of loop indices, each with its representative loop."""

    relation: str
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[RightLoop, ...]

    def __repr__(self):
        sizes = [len(c) for c in self.classes]
        return f"ClassPartition({self.relation}, sizes={sizes})"

    @cached_property
    def _class_index(self) -> dict[int, int]:
        return {i: k for k, members in enumerate(self.classes) for i in members}

    def class_of(self, index: int) -> int:
        try:
            return self._class_index[index]
        except KeyError:
            raise IndexError(index) from None


def _is_isotopy(relation: str) -> bool:
    if relation not in ("iso", "isotopy"):
        raise ValueError(f"unknown relation {relation!r} (expected 'iso' or 'isotopy')")
    return relation == "isotopy"


def classify(loops, relation: str = "isotopy") -> ClassPartition:
    """Partition same-order right loops into equivalence classes in one
    pass over any iterable of them.

    The loop that opens a class enters its targets into an index: itself
    under 'iso', and under 'isotopy' its principal isotopes, since a loop
    is isotopic to it exactly when isomorphic to one of them; the
    signatures of each new isotope table are read off the opener. A
    further loop is settled by looking its table up among the targets, or
    else by an isomorphism search against the targets that share its
    sorted element signatures, an isomorphism invariant. Only class
    members, the current representatives and the index are kept. Classes
    come out in order of their least member; the representative is the
    first member with the lexicographically least table."""
    isotopy = _is_isotopy(relation)
    classes: list[list[int]] = []
    representatives: list[RightLoop] = []
    exact: dict[tuple, int] = {}  # target table -> class
    index: dict[tuple, list] = {}  # sorted signatures -> (class, table, signatures)

    def enter(table, sigs, k):
        exact[table] = k
        index.setdefault(tuple(sorted(sigs)), []).append((k, table, sigs))

    for i, loop in enumerate(loops):
        if representatives and loop.order != representatives[0].order:
            raise ValueError("classification requires loops of equal order")
        k = exact.get(loop.table)
        if k is None:
            sigs = loop.signatures
            for c, table, target_sigs in index.get(tuple(sorted(sigs)), ()):
                if next(_isomorphisms(loop.table, table, sigs, target_sigs), None):
                    k = c
                    break
        if k is not None:
            classes[k].append(i)
            if loop.table < representatives[k].table:
                representatives[k] = loop
            continue
        k = len(classes)
        classes.append([i])
        representatives.append(loop)
        if not isotopy:
            enter(loop.table, loop.signatures, k)
            continue
        for a, b, signatures in _principal_signatures(loop):
            table = principal_isotope_with_relabel(loop, a, b)[0].table
            if table not in exact:
                enter(table, signatures(), k)
    return ClassPartition(relation, tuple(map(tuple, classes)), tuple(representatives))


# ---------------------------------------------------------------------------
# autotopies and pseudo-automorphisms


@dataclass(frozen=True)
class AutotopyGroup:
    """All autotopies of a right loop, with the sizes of the stabilizer
    subgroups: A1 fixes 0 under alpha, A2 fixes 0 under beta, and their
    intersection is the automorphism group acting diagonally."""

    loop: RightLoop
    elements: tuple[IsotopyWitness, ...]

    def __repr__(self):
        return (
            f"AutotopyGroup(order={self.u_size}, a1={self.a1_size}, "
            f"a2={self.a2_size}, aut={self.aut_size})"
        )

    @property
    def u_size(self) -> int:
        return len(self.elements)

    @property
    def a1_size(self) -> int:
        return sum(1 for w in self.elements if w.alpha[0] == 0)

    @property
    def a2_size(self) -> int:
        return sum(1 for w in self.elements if w.beta[0] == 0)

    @property
    def aut_size(self) -> int:
        return len(self.automorphisms)

    @property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        maps = []
        for w in self.elements:
            if w.alpha[0] == 0 and w.beta[0] == 0:
                if not w.is_isomorphism():
                    raise AssertionError(
                        "autotopy fixing 0 on both sides is not diagonal"
                    )
                maps.append(w.alpha)
        return tuple(maps)


def autotopy_group(loop: RightLoop) -> AutotopyGroup:
    """Enumerate the full autotopy group: every autotopy is a principal
    isotopy followed by an isomorphism from its isotope back onto the loop."""
    n = loop.order
    if n > AUTOTOPY_ORDER_CAP:
        raise CapExceededError(
            f"autotopy enumeration is capped at order {AUTOTOPY_ORDER_CAP}, got {n}"
        )
    found = set(_isotopies(loop, loop))
    witnesses = sorted(found, key=lambda w: (w.alpha, w.beta, w.gamma))
    for w in witnesses:
        if not w.verify(loop, loop):
            raise AssertionError("constructed autotopy failed verification")
        if w.inverse() not in found:
            raise AssertionError("autotopy set is not closed under inversion")
    _check_closed(found, witnesses, n)
    return AutotopyGroup(loop, tuple(witnesses))


def _check_closed(found, witnesses, n: int) -> None:
    """Raise AssertionError unless the set found of witnesses on n points,
    listed in order by witnesses, is closed under composition, i.e. a
    group, in |found| * |X| compositions.

    Walk from the identity under a generating set X, picked greedily from
    witnesses in order: each witness not yet reached joins X. Every
    reached element is composed with every generator, and the walk stops
    at the first product outside found. If none leaves it, the walk
    reaches the group generated by X inside found, which holds every
    witness; so found is that group."""
    identity = IsotopyWitness.identity(n)
    if identity not in found:
        raise AssertionError("autotopy set is not closed under composition")
    reached, generators = {identity}, []
    for w in witnesses:
        if w in reached:
            continue
        generators.append(w)
        # the elements reached so far meet the new generator once, and each
        # element reached from now on meets every generator once
        queue = [(r, (w,)) for r in reached]
        while queue:
            r, gens = queue.pop()
            for g in gens:
                product = r.then(g)
                if product not in found:
                    raise AssertionError("autotopy set is not closed under composition")
                if product not in reached:
                    reached.add(product)
                    queue.append((product, generators))


def _pseudo_automorphism_identity(t, eta, c, side: str) -> bool:
    """Whether, on the right, eta(x*y) * c = eta(x) * (eta(y) * c), or on
    the left, c * eta(x*y) = (c * eta(x)) * eta(y), for all x, y of the
    table t."""
    n = len(t)
    if side == "right":
        return all(
            t[eta[t[x][y]]][c] == t[eta[x]][t[eta[y]][c]]
            for x in range(n)
            for y in range(n)
        )
    row = t[c]
    return all(
        row[eta[t[x][y]]] == t[row[eta[x]]][eta[y]] for x in range(n) for y in range(n)
    )


def _pseudo_autotopy(loop: RightLoop, eta, c, side: str):
    """The triple attached to eta and c: on the right (eta, R(c) o eta,
    R(c) o eta); on the left (L(c) o eta, eta, L(c) o eta)."""
    if side == "right":
        shifted = tuple(map(loop.columns[c].__getitem__, eta))
        return eta, shifted, shifted
    shifted = tuple(map(loop.table[c].__getitem__, eta))
    return shifted, eta, shifted


def pseudo_automorphism_scan(group: AutotopyGroup):
    """Yield (eta, c, side, holds, is_autotopy) for every bijection eta on
    the loop of group, in permutation order, and each companion c, on the
    right and then, when c is left non-singular, on the left. holds is
    whether eta fixes 0 and eta(x*y) * c = eta(x) * (eta(y) * c) on the
    right, or c * eta(x*y) = (c * eta(x)) * eta(y) on the left. is_autotopy
    is whether (eta, R(c) o eta, R(c) o eta), or (L(c) o eta, eta, L(c) o
    eta), is a member of group, so the scan inherits AUTOTOPY_ORDER_CAP.
    A triple is built only when eta is the alpha of a member with beta =
    gamma (right) or the beta of one with alpha = gamma (left); no other
    triple can be a member."""
    loop = group.loop
    n, t = loop.order, loop.table
    members = {(w.alpha, w.beta, w.gamma) for w in group.elements}
    right_alphas = {w.alpha for w in group.elements if w.beta == w.gamma}
    left_betas = {w.beta for w in group.elements if w.alpha == w.gamma}
    lns = set(left_nonsingular_elements(loop))
    sides = [("right", "left") if c in lns else ("right",) for c in range(n)]
    for eta in itertools.permutations(range(n)):
        fixes = eta[0] == 0
        candidate = {"right": eta in right_alphas, "left": eta in left_betas}
        for c in range(n):
            for side in sides[c]:
                holds = fixes and _pseudo_automorphism_identity(t, eta, c, side)
                is_autotopy = candidate[side] and (
                    _pseudo_autotopy(loop, eta, c, side) in members
                )
                yield eta, c, side, holds, is_autotopy
