"""Right loops as explicit operation tables.

A right loop is a finite magma with a two-sided identity in which every
right translation x -> x * y is a bijection. In table terms: index 0 is a
two-sided identity and every column of the table is a permutation; rows are
allowed to repeat values. Elements whose row is also a permutation are the
left non-singular elements; the structure is a loop exactly when every
element is left non-singular, and a group when it is additionally
associative.

``group_torsion`` computes the permutation group generated by the defect
maps R(x*y)^-1 R(y) R(x), up to a cap on its order; it is trivial exactly
on group tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import _associativity_failure
from .perms import CapExceededError, compose, invert


class RightLoopError(ValueError):
    """The table does not define a right loop."""


class NotIdentityError(RightLoopError):
    def __init__(self, index: int):
        super().__init__(f"index 0 is not a two-sided identity (witness element {index})")
        self.index = index


class ColumnNotBijectiveError(RightLoopError):
    def __init__(self, column: int):
        super().__init__(f"column {column} is not a bijection")
        self.column = column


def _check_loop_table(order: int, table) -> None:
    if order < 1:
        raise RightLoopError("a right loop needs at least one element")
    if len(table) != order:
        raise RightLoopError(f"expected {order} rows, found {len(table)}")
    rng = range(order)
    for x, row in enumerate(table):
        if len(row) != order:
            raise RightLoopError(f"row {x} has {len(row)} entries, expected {order}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < order:
                raise RightLoopError(f"entry {v!r} in row {x} out of range 0..{order - 1}")
    everything = set(rng)
    for y in rng:
        if {table[x][y] for x in rng} != everything:
            raise ColumnNotBijectiveError(y)
    for a in rng:
        if table[0][a] != a or table[a][0] != a:
            raise NotIdentityError(a)


@dataclass(frozen=True)
class RightLoop:
    """An operation table with two-sided identity 0 and bijective columns."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        _check_loop_table(self.order, self.table)

    def __repr__(self):
        return f"RightLoop(order={self.order})"

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.table))

    @cached_property
    def signatures(self) -> tuple[tuple, ...]:
        """Per-element invariants preserved by any isomorphism: the row's
        value multiplicities, the column's sorted cycle lengths, and
        idempotence. Computed once per loop, in one pass over the table."""
        return _table_signatures(self)


def _cycle_lengths(perm) -> tuple[int, ...]:
    """The sorted cycle lengths of a permutation."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        y = start
        while not seen[y]:
            seen[y] = True
            y = perm[y]
            length += 1
        lengths.append(length)
    lengths.sort()
    return tuple(lengths)


def _table_signatures(loop: RightLoop) -> tuple[tuple, ...]:
    return tuple(
        (tuple(sorted(map(row.count, set(row)))), _cycle_lengths(column), row[x] == x)
        for x, (row, column) in enumerate(zip(loop.table, loop.columns))
    )


def validate_right_loop(table) -> RightLoop:
    """Build a RightLoop from any square sequence of index rows, raising
    NotIdentityError or ColumnNotBijectiveError with a witness on failure."""
    rows = tuple(tuple(row) for row in table)
    return RightLoop(len(rows), rows)


def _trusted_right_loop(table: tuple[tuple[int, ...], ...]) -> RightLoop:
    """A RightLoop from a tuple of row tuples that is a right loop by
    construction, such as a principal isotope or a flip loop, without
    checking it. Tables from outside go through validate_right_loop."""
    loop = object.__new__(RightLoop)
    loop.__dict__.update(order=len(table), table=table)
    return loop


def left_nonsingular_elements(loop: RightLoop) -> tuple[int, ...]:
    """Elements whose left translation (table row) is a bijection."""
    everything = set(range(loop.order))
    return tuple(
        x for x in range(loop.order) if set(loop.table[x]) == everything
    )


def is_loop(loop: RightLoop) -> bool:
    """Whether every row is a bijection, so the right loop is a loop."""
    return all(len(set(row)) == loop.order for row in loop.table)


def is_associative(table) -> bool:
    return _associativity_failure(table) is None


@dataclass(frozen=True)
class StructureFlags:
    is_loop: bool
    is_group: bool


def structure_flags(loop: RightLoop) -> StructureFlags:
    loop_flag = is_loop(loop)
    return StructureFlags(loop_flag, loop_flag and is_associative(loop.table))


# ---------------------------------------------------------------------------
# translation groups


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    generators: tuple[tuple[int, ...], ...]
    elements: frozenset

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

    @property
    def order(self) -> int:
        return len(self.elements)


# Bounds a closure's memory: S_8 (40320 elements, the torsion of a typical
# right loop of order 9) fits, S_9 (362880) does not.
CLOSURE_CAP = 1 << 18


def close_permutations(degree: int, generators) -> PermutationGroup:
    """Work-queue closure of a generator set inside the symmetric group.
    Raises CapExceededError before the element set grows past
    CLOSURE_CAP."""
    gens = tuple(dict.fromkeys(tuple(g) for g in generators))
    identity = tuple(range(degree))
    elements = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for g in gens:
            q = compose(g, p)
            if q not in elements:
                if len(elements) >= CLOSURE_CAP:
                    raise CapExceededError(
                        f"the permutation group on {degree} points has more than "
                        f"{CLOSURE_CAP} elements"
                    )
                elements.add(q)
                queue.append(q)
    return PermutationGroup(degree, gens, frozenset(elements))


def group_torsion(loop: RightLoop) -> PermutationGroup:
    """Permutation group generated by R(x*y)^-1 R(y) R(x) over all pairs,
    where R(y) is the column map and R(x) acts first. Trivial exactly when
    the table is a group. Raises CapExceededError past CLOSURE_CAP
    elements."""
    cols = loop.columns
    inv_cols = tuple(invert(c) for c in cols)
    gens = set()
    for x in range(loop.order):
        rx = cols[x]
        for y in range(loop.order):
            gens.add(compose(inv_cols[loop.table[x][y]], compose(cols[y], rx)))
    return close_permutations(loop.order, sorted(gens))


