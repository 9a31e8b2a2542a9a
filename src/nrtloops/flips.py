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
from .rightloops import RightLoop, _trusted_right_loop, is_loop
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
        return sum(1 << b for b in self.members)

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
    return (FlipSet.from_mask(n, mask) for mask in _subset_masks(n, cap))


def _subset_masks(n: int, cap: int) -> range:
    """The masks of flip_sets(n, cap), checked against cap."""
    total = 1 << (n - 1)
    if total > cap:
        raise CapExceededError(f"{total} transversals exceed the cap of {cap}")
    return range(0, 1 << n, 2)


def _as_flip_set(n: int, B) -> FlipSet:
    if isinstance(B, FlipSet):
        if B.n != n:
            raise ValueError(f"flip set is mod {B.n}, expected mod {n}")
        return B
    return FlipSet(n, tuple(B))


def flip_loop(n: int, B) -> RightLoop:
    """The right loop on residues mod n with table[x][y] = x + y for y
    outside B and y - x for y in B. Each column is a bijection and 0 is a
    two-sided identity by construction, so the table is not checked."""
    B = _as_flip_set(n, B)
    table = tuple(
        tuple((y - x) % n if y in B else (x + y) % n for y in range(n))
        for x in range(n)
    )
    return _trusted_right_loop(table)


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


def flip_mask(T: Transversal) -> int:
    """The inverse of dihedral_transversal on masks: bit i is set when the
    representative of coset i is a reflection, an element past the n-th."""
    return sum(1 << i for i, r in enumerate(T.reps) if r >= len(T.reps))


def predicted_left_nonsingular(n: int, B) -> tuple[int, ...]:
    """Left non-singular residues of flip_loop(n, B) computed from B alone:
    a nonzero i qualifies exactly when B is fixed by adding the generator
    of the subgroup generated by i (odd n) or by 2i (even n); 0 always
    qualifies. Matches the row-bijectivity scan of the table."""
    mask = _as_flip_set(n, B).mask
    full = (1 << n) - 1
    result = [0]
    for i in range(1, n):
        step = math.gcd(i if n % 2 else 2 * i, n)
        # B is fixed by adding step when its mask is turned step places
        if (mask << step | mask >> (n - step)) & full == mask:
            result.append(i)
    return tuple(result)


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
            if not is_loop(flip_loop(n, B)):
                raise AssertionError(
                    f"criterion and table disagree at n={n}, B={B.format()}"
                )
            witnesses.append(B)
    return CensusResult(n, len(witnesses), tuple(witnesses))


# ---------------------------------------------------------------------------
# isotopy families over a prime modulus


def _family_masks(p: int, mask: int) -> frozenset[int]:
    """The masks of the isotopy family of the subset of nonzero residues
    mod an odd prime with this mask: over every affine map f, the image
    f(B) when it misses 0, and its complement when it holds 0."""
    full = (1 << p) - 1
    members = [b for b in range(1, p) if mask >> b & 1]
    family = set()
    for f in affine_maps(p):
        image = 0
        for b in members:
            image |= 1 << f[b]
        family.add(full ^ image if image & 1 else image)
    return frozenset(family)


def _family_walk(p: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """The families of all subsets mod p as sorted tuples of masks, by least
    mask, one _family_masks call each; the cap is checked first."""
    _require_odd_prime(p)
    masks = _subset_masks(p, cap)
    seen = bytearray(1 << p)
    for mask in masks:
        if not seen[mask]:
            family = sorted(_family_masks(p, mask))
            for member in family:
                if seen[member]:
                    raise AssertionError("families are not disjoint")
                seen[member] = 1
            yield tuple(family)


def affine_family(p: int, B) -> frozenset[FlipSet]:
    """The isotopy family of a subset B of nonzero residues mod an odd
    prime, as flip sets (see _family_masks); membership is symmetric.
    Raises CapExceededError above p = AFFINE_PRIME_CAP, as affine_maps does."""
    masks = _family_masks(p, _as_flip_set(p, B).mask)
    return frozenset(FlipSet.from_mask(p, mask) for mask in masks)


def affine_families(
    p: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[FlipSet, ...], ...]:
    """Partition of all subsets of the nonzero residues mod p into isotopy
    families, ordered by least member mask; families are sorted by mask.
    Raises CapExceededError when the 2^(p-1) subsets exceed cap."""
    return tuple(
        tuple(FlipSet.from_mask(p, mask) for mask in family)
        for family in _family_walk(p, cap)
    )


def families_json_obj(p: int, families) -> dict:
    return {
        "n": p,
        "families": [
            {"size": len(fam), "members": [list(s.members) for s in fam]}
            for fam in families
        ],
    }
