"""Normalized right transversals of a subgroup and their induced loops.

A normalized right transversal picks one representative from each right
coset of H in G, with the identity representing H itself. Folding the group
product back onto the representatives (x * y goes to the representative of
its coset) induces a right loop on the coset positions; this module
enumerates transversals and builds those loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groups import CosetDecomposition, FiniteGroup, GroupError, Subgroup, right_cosets
from .perms import CapExceededError
from .rightloops import RightLoop, validate_right_loop

DEFAULT_ENUMERATION_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class Transversal:
    """A normalized right transversal, keyed by its representative vector
    (reps[i] is the representative of coset i; reps[0] is the identity)."""

    group: FiniteGroup
    decomposition: CosetDecomposition
    reps: tuple[int, ...]

    def __repr__(self):
        return f"Transversal({self.label()})"

    def __hash__(self):
        return hash(self.reps)

    def __eq__(self, other):
        return isinstance(other, Transversal) and self.reps == other.reps

    def label(self) -> str:
        return ",".join(self.group.name_of(r) for r in self.reps)


def transversal_count(G: FiniteGroup, H: Subgroup) -> int:
    return H.order ** (G.order // H.order - 1)


def make_transversal(
    G: FiniteGroup,
    H: Subgroup,
    reps,
    decomposition: CosetDecomposition | None = None,
) -> Transversal:
    dec = decomposition if decomposition is not None else right_cosets(G, H)
    reps = tuple(int(r) for r in reps)
    if len(reps) != len(dec.cosets):
        raise GroupError(
            f"{len(reps)} representatives for {len(dec.cosets)} cosets"
        )
    if reps[0] != 0:
        raise GroupError("a normalized transversal must represent H by the identity")
    for i, r in enumerate(reps):
        if not 0 <= r < G.order or dec.coset_of[r] != i:
            raise GroupError(f"representative {r} does not lie in coset {i}")
    return Transversal(G, dec, reps)


def transversal_from_elements(G: FiniteGroup, H: Subgroup, elements) -> Transversal:
    """Build a transversal from an unordered representative set."""
    dec = right_cosets(G, H)
    reps = [-1] * len(dec.cosets)
    for e in elements:
        e = int(e)
        if not 0 <= e < G.order:
            raise GroupError(f"element index {e} out of range for order {G.order}")
        i = dec.coset_of[e]
        if reps[i] >= 0:
            raise GroupError(f"coset {i} is represented twice")
        reps[i] = e
    if any(r < 0 for r in reps):
        raise GroupError("some coset has no representative")
    return make_transversal(G, H, reps, dec)


def enumerate_transversals(
    G: FiniteGroup, H: Subgroup, cap: int = DEFAULT_ENUMERATION_CAP
):
    """All normalized right transversals of H in G, in lexicographic order
    of their representative vectors. Raises CapExceededError before
    yielding anything if |H|^(index - 1) exceeds the cap."""
    dec = right_cosets(G, H)
    count = transversal_count(G, H)
    if count > cap:
        raise CapExceededError(f"{count} transversals exceed the cap of {cap}")

    def generate():
        for choice in itertools.product(*dec.cosets[1:]):
            yield Transversal(G, dec, (0, *choice))

    return generate()


def induced_right_loop(T: Transversal) -> RightLoop:
    """The right loop on coset positions: position of the coset holding
    reps[i] * reps[j]."""
    G, dec, reps = T.group, T.decomposition, T.reps
    k = len(reps)
    table = tuple(
        tuple(dec.coset_of[G.mul(reps[i], reps[j])] for j in range(k))
        for i in range(k)
    )
    return validate_right_loop(table)

