"""Right loops on the residues mod n driven by a set of flipped columns.

For a subset B of the nonzero residues, the operation is x + y for columns
y outside B and y - x for columns inside B. These tables are exactly the
loops induced by transversals of a reflection subgroup of order 2 in the
dihedral group of order 2n, with the representative for coset i taken on
the reflection side precisely when i lies in B.

For an odd prime modulus, isotopy between two such loops is governed by
the affine maps on residues; affine_family computes the full isotopy class
of a subset under that action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .burnside import _require_odd_prime, affine_maps
from .groups import dihedral_group, right_cosets, subgroup
from .perms import CapExceededError
from .rightloops import RightLoop, structure_flags, validate_right_loop
from .transversals import DEFAULT_ENUMERATION_CAP, Transversal, make_transversal


@dataclass(frozen=True)
class FlipSet:
    """A subset of the nonzero residues mod n, kept sorted."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        members = tuple(sorted(set(self.members)))
        for b in members:
            if not 1 <= b < self.n:
                raise ValueError(
                    f"flip set members must lie in 1..{self.n - 1}, got {b}"
                )
        object.__setattr__(self, "members", members)

    def __repr__(self):
        return f"FlipSet({self.n}, {{{', '.join(map(str, self.members))}}})"

    def __contains__(self, residue: int) -> bool:
        return residue in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def mask(self) -> int:
        result = 0
        for b in self.members:
            result |= 1 << b
        return result

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "FlipSet":
        return cls(n, tuple(i for i in range(n) if mask >> i & 1))

    @classmethod
    def parse(cls, n: int, text: str) -> "FlipSet":
        """Parse a comma-separated residue list, braced or not; blank means empty."""
        inner = text.strip()
        if inner.startswith("{") and inner.endswith("}"):
            inner = inner[1:-1].strip()
        if not inner:
            return cls(n, ())
        members = []
        for tok in map(str.strip, inner.split(",")):
            try:
                members.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"flip set member {tok!r} in {text!r} is not an integer"
                ) from None
        return cls(n, tuple(members))

    def format(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


def flip_sets(n: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """The 2^(n-1) subsets of the nonzero residues mod n in mask order: the
    flip sets of the transversals of a reflection in the dihedral group of
    order 2n. Raises CapExceededError, before yielding any, when they
    exceed cap."""
    total = 1 << (n - 1)
    if total > cap:
        raise CapExceededError(f"{total} transversals exceed the cap of {cap}")
    return (FlipSet.from_mask(n, mask << 1) for mask in range(total))


def _as_flip_set(n: int, B) -> FlipSet:
    if isinstance(B, FlipSet):
        if B.n != n:
            raise ValueError(f"flip set is mod {B.n}, expected mod {n}")
        return B
    return FlipSet(n, tuple(B))


def flip_loop(n: int, B) -> RightLoop:
    """The right loop on residues mod n with table[x][y] = x + y for y
    outside B and y - x for y in B."""
    B = _as_flip_set(n, B)
    table = tuple(
        tuple((y - x) % n if y in B else (x + y) % n for y in range(n))
        for x in range(n)
    )
    return validate_right_loop(table)


def dihedral_transversal(n: int, B) -> Transversal:
    """The transversal of the order-2 reflection subgroup in the dihedral
    group of order 2n whose induced loop is flip_loop(n, B): the coset of
    the i-th rotation is represented by the reflected element exactly when
    i is in B."""
    if n < 2:
        raise ValueError("dihedral construction needs n >= 2")
    B = _as_flip_set(n, B)
    G = dihedral_group(n)
    H = subgroup(G, (0, n))
    dec = right_cosets(G, H)
    reps = tuple(n + i if i in B else i for i in range(n))
    return make_transversal(G, H, reps, dec)


def predicted_left_nonsingular(n: int, B) -> tuple[int, ...]:
    """Left non-singular residues of flip_loop(n, B) computed from B alone:
    a nonzero i qualifies exactly when B is fixed by adding the generator
    of the subgroup generated by i (odd n) or by 2i (even n); 0 always
    qualifies. Matches the row-bijectivity scan of the table."""
    B = _as_flip_set(n, B)
    result = [0]
    for i in range(1, n):
        step = math.gcd(i if n % 2 else 2 * i, n)
        if _shift_invariant(B, step):
            result.append(i)
    return tuple(result)


def _shift_invariant(B: FlipSet, step: int) -> bool:
    """Whether B and its complement are unions of cosets of the subgroup
    of multiples of step."""
    members = B._member_set
    return all((b + step) % B.n in members for b in members)


@dataclass(frozen=True)
class CensusResult:
    n: int
    count: int
    witnesses: tuple[FlipSet, ...]

    def __repr__(self):
        shown = ", ".join(w.format() for w in self.witnesses)
        return f"CensusResult(n={self.n}, count={self.count}, witnesses=[{shown}])"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "witnesses": [list(w.members) for w in self.witnesses],
        }


def loop_transversal_census(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CensusResult:
    """Scan all subsets B of the nonzero residues and report those whose
    flip loop is a loop (every row bijective)."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    witnesses = []
    for B in flip_sets(n, cap):
        if len(predicted_left_nonsingular(n, B)) == n:
            if not structure_flags(flip_loop(n, B)).is_loop:
                raise AssertionError(
                    f"criterion and table disagree at n={n}, B={B.format()}"
                )
            witnesses.append(B)
    return CensusResult(n, len(witnesses), tuple(witnesses))


# ---------------------------------------------------------------------------
# isotopy families over a prime modulus


def affine_family(p: int, B) -> frozenset[FlipSet]:
    """The isotopy family of a subset B of nonzero residues mod an odd
    prime: over every affine map f, the image f(B) when it misses 0, and
    its complement when it holds 0. Every member is again a subset of the
    nonzero residues, and membership is symmetric. Raises
    CapExceededError above p = AFFINE_PRIME_CAP, as affine_maps does."""
    maps = affine_maps(p)
    members = _as_flip_set(p, B).members
    full = (1 << p) - 1
    masks = set()
    for f in maps:
        image = 0
        for b in members:
            image |= 1 << f[b]
        masks.add(full ^ image if image & 1 else image)
    return frozenset(FlipSet.from_mask(p, mask) for mask in masks)


def affine_families(
    p: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[FlipSet, ...], ...]:
    """Partition of all subsets of the nonzero residues mod p into isotopy
    families, ordered by least member mask; families are sorted by mask.
    Raises CapExceededError when the 2^(p-1) subsets exceed cap."""
    _require_odd_prime(p)
    assigned: dict[int, int] = {}
    families = []
    for B in flip_sets(p, cap):
        if B.mask in assigned:
            continue
        family = sorted(affine_family(p, B), key=lambda s: s.mask)
        for member in family:
            if member.mask in assigned:
                raise AssertionError("families are not disjoint")
            assigned[member.mask] = len(families)
        families.append(tuple(family))
    return tuple(families)


def families_json_obj(p: int, families) -> dict:
    return {
        "n": p,
        "families": [
            {"size": len(fam), "members": [list(s.members) for s in fam]}
            for fam in families
        ],
    }
