"""Finite groups as explicit Cayley tables over 0-based element indices.

A group here is nothing but its multiplication table: ``table[a][b]`` is the
index of the product ``a*b``. The identity always sits at index 0; the named
constructors and the file loader relabel as needed to enforce that. Element
names are optional display strings, distinct when given. A table from
outside, given to ``FiniteGroup`` or ``loads_cayley``, is checked once, in
full; the named constructors and ``quotient`` build groups by construction
through ``_trusted_group``, which checks nothing. Everything is immutable
and safe to share between threads.

Permutation elements (symmetric and alternating constructors) compose in the
usual way: the right factor acts first, so ``mul(p, q)`` is the map
``x -> p(q(x))``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

from .perms import CapExceededError, compose, format_cycles, parse_cycles, perm_parity

# Order cap for the named constructors, the order of sym:7. A table of
# order N holds N^2 entries, so sym:8 would need over 12 GiB.
GROUP_ORDER_CAP = 5040


class GroupError(ValueError):
    """A table, descriptor, or member set does not define what it claims."""


class CayleyFileError(GroupError):
    """Cayley-table text rejected; carries the offending 1-based line and,
    when it makes sense, the 1-based token column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        elif column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def _check_table(order: int, table) -> None:
    if order <= 0:
        raise GroupError("group order must be positive")
    if len(table) != order:
        raise GroupError(f"expected {order} rows, found {len(table)}")
    everything = frozenset(range(order))
    for a, row in enumerate(table):
        if len(row) != order:
            raise GroupError(f"row {a} has {len(row)} entries, expected {order}")
        if set(row) != everything:
            raise GroupError(f"row {a} is not a permutation of 0..{order - 1}")
    for b, column in enumerate(zip(*table)):
        if set(column) != everything:
            raise GroupError(f"column {b} is not a permutation of 0..{order - 1}")
    for a in range(order):
        if table[0][a] != a or table[a][0] != a:
            raise GroupError(f"index 0 is not a two-sided identity (element {a})")
    for a in range(order):
        b = table[a].index(0)
        if table[b][a] != 0:
            raise GroupError(f"element {a} has no two-sided inverse")
    if (failure := _associativity_failure(table)) is not None:
        a, b, c = failure
        raise GroupError(f"associativity fails at ({a},{b},{c})")


def _associativity_failure(table) -> tuple[int, int, int] | None:
    """The first (a, b, c), in lexicographic order, with (a*b)*c != a*(b*c)
    in the square table, or None when it is associative."""
    n = len(table)
    for a, ta in enumerate(table):
        for b in range(n):
            left_row = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if left_row[c] != ta[tb[c]]:
                    return a, b, c
    return None


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table; identity is index 0."""

    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None
    kind: str = "table"

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        if self.names is not None:
            names = tuple(map(str, self.names))
            object.__setattr__(self, "names", names)
            if len(names) != self.order:
                raise GroupError(f"{len(names)} names for {self.order} elements")
            if len(set(names)) < self.order:
                repeated = next(s for i, s in enumerate(names) if s in names[:i])
                raise GroupError(f"name {repeated!r} is repeated")
        _check_table(self.order, self.table)

    def __repr__(self):
        return f"FiniteGroup({self.kind}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        return self.mul(self.mul(self.inv(g), a), g)

    def commutator(self, a: int, b: int) -> int:
        """a^-1 * b^-1 * a * b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)


def _trusted_group(table: tuple[tuple[int, ...], ...], names, kind: str) -> FiniteGroup:
    """A FiniteGroup from row tuples that form a group with identity 0 by
    construction, unchecked: the twin of rightloops._trusted_right_loop."""
    group = object.__new__(FiniteGroup)
    group.__dict__.update(order=len(table), table=table, names=names, kind=kind)
    return group


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    def __repr__(self):
        return f"Subgroup(order={self.order}, members={self.members})"

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)


def subgroup(G: FiniteGroup, members) -> Subgroup:
    """Validate a member set as a subgroup of G."""
    mems = sorted(set(int(m) for m in members))
    for m in mems:
        if not 0 <= m < G.order:
            raise GroupError(f"element index {m} out of range for order {G.order}")
    if 0 not in mems:
        raise GroupError("a subgroup must contain the identity (index 0)")
    mset = set(mems)
    for a in mems:
        for b in mems:
            if G.mul(a, b) not in mset:
                raise GroupError(
                    f"not closed: {G.name_of(a)} * {G.name_of(b)} falls outside"
                )
    return Subgroup(G, tuple(mems))


def generated_subgroup(G: FiniteGroup, generators) -> Subgroup:
    """Smallest subgroup of G containing the given element indices: the
    products of generators, as in a finite group an inverse is a power."""
    gens = [int(g) for g in generators]
    for g in gens:
        if not 0 <= g < G.order:
            raise GroupError(f"generator index {g} out of range for order {G.order}")
    members = {0}
    queue = [0]
    while queue:
        row = G.table[queue.pop()]
        for g in gens:
            c = row[g]
            if c not in members:
                members.add(c)
                queue.append(c)
    return Subgroup(G, tuple(sorted(members)))


@dataclass(frozen=True)
class CosetDecomposition:
    """Right cosets Hg of a subgroup. Coset 0 is H itself; the rest are
    ordered by their smallest member index."""

    subgroup: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    coset_of: tuple[int, ...]

    def __repr__(self):
        return f"CosetDecomposition({len(self.cosets)} cosets)"


def right_cosets(G: FiniteGroup, H: Subgroup) -> CosetDecomposition:
    if H.parent is not G and H.parent != G:
        raise GroupError("subgroup does not belong to this group")
    coset_of = [-1] * G.order
    cosets: list[tuple[int, ...]] = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        coset = tuple(sorted(G.mul(h, g) for h in H.members))
        idx = len(cosets)
        for x in coset:
            coset_of[x] = idx
        cosets.append(coset)
    return CosetDecomposition(H, tuple(cosets), tuple(coset_of))


def core(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G contained in H: the intersection of all
    conjugates g^-1 H g."""
    members = set(H.members)
    for g in range(G.order):
        members &= {G.conj(h, g) for h in H.members}
    return subgroup(G, members)


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    mset = set(H.members)
    return all(
        G.conj(h, g) in mset for g in range(G.order) for h in H.members
    )


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The quotient group G/N plus the projection map, as (group, projection)
    where projection[g] is the index of the coset Ng."""
    if not is_normal(G, N):
        raise GroupError("cannot quotient by a non-normal subgroup")
    dec = right_cosets(G, N)
    k = len(dec.cosets)
    reps = [c[0] for c in dec.cosets]
    table = tuple(
        tuple(dec.coset_of[G.mul(reps[i], reps[j])] for j in range(k))
        for i in range(k)
    )
    return _trusted_group(table, None, "quotient"), dec.coset_of


def is_nilpotent(G: FiniteGroup) -> bool:
    """Ascending central series (via commutators) reaches the whole group."""
    level = frozenset({0})
    while True:
        nxt = frozenset(
            g
            for g in range(G.order)
            if all(G.commutator(g, h) in level for h in range(G.order))
        )
        if len(nxt) == G.order:
            return True
        if nxt == level:
            return False
        level = nxt


def is_solvable(G: FiniteGroup) -> bool:
    """Whether the derived series, walked on member sets inside G, ends at 1."""
    members = range(G.order)
    while len(members) > 1:
        comms = {G.commutator(a, b) for a in members for b in members}
        derived = generated_subgroup(G, comms).members
        if len(derived) == len(members):
            return False
        members = derived
    return True


# ---------------------------------------------------------------------------
# named constructors


def _require_order_within_cap(descriptor: str, factors) -> None:
    """Raise CapExceededError, before any table is built, once the running
    product of factors (which ends at the group's order) passes the cap."""
    if any(o > GROUP_ORDER_CAP for o in itertools.accumulate(factors, operator.mul)):
        raise CapExceededError(
            f"the order of {descriptor} exceeds the cap of {GROUP_ORDER_CAP}"
        )


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError(f"cyclic group needs order >= 1, got {n}")
    _require_order_within_cap(f"cyclic:{n}", (n,))
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return _trusted_group(table, tuple(str(i) for i in range(n)), "cyclic")


def _dihedral_name(a: int, i: int) -> str:
    if a == 0:
        return "1" if i == 0 else ("y" if i == 1 else f"y^{i}")
    return "x" if i == 0 else ("xy" if i == 1 else f"xy^{i}")


@lru_cache(maxsize=None)
def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n with presentation x^2 = y^n = 1,
    x y x = y^-1. Elements are ordered 1, y, ..., y^(n-1), x, xy, ...,
    xy^(n-1), so index a*n + i stands for x^a y^i."""
    if n < 2:
        raise GroupError(f"dihedral constructor needs n >= 2, got {n}")
    _require_order_within_cap(f"dihedral:{n}", (2, n))

    def mul(a, i, b, j):
        # y^i x = x y^-i, so (x^a y^i)(x^b y^j) = x^(a+b) y^(j - i) when b = 1
        sign = -1 if b else 1
        return ((a + b) % 2) * n + (sign * i + j) % n

    table = tuple(
        tuple(mul(a, i, b, j) for b in (0, 1) for j in range(n))
        for a in (0, 1)
        for i in range(n)
    )
    names = tuple(_dihedral_name(a, i) for a in (0, 1) for i in range(n))
    return _trusted_group(table, names, "dihedral")


def _perm_group(perms: list[tuple[int, ...]], kind: str) -> FiniteGroup:
    """The group of a set of permutations closed under composition, in
    sorted order. Row p lists the indices of p o q over q, and row(p o g)
    is row(p) read through row(g), so the rows are built by a walk from the
    identity under generators picked greedily from the sorted permutations."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    rows = {0: tuple(range(len(perms)))}
    generator_rows = {}
    for g, perm in enumerate(perms):
        if g in rows:
            continue
        generator_rows[g] = tuple(index[compose(perm, q)] for q in perms)
        queue = list(rows)
        while queue:
            row = rows[queue.pop()]
            for h, h_row in generator_rows.items():
                if row[h] not in rows:
                    rows[row[h]] = tuple(map(row.__getitem__, h_row))
                    queue.append(row[h])
    table = tuple(rows[i] for i in range(len(perms)))
    names = tuple(format_cycles(p) for p in perms)
    return _trusted_group(table, names, kind)


@lru_cache(maxsize=None)
def symmetric_group(k: int) -> FiniteGroup:
    if k < 1:
        raise GroupError(f"symmetric degree must be at least 1, got {k}")
    _require_order_within_cap(f"sym:{k}", range(2, k + 1))
    return _perm_group(list(itertools.permutations(range(k))), "symmetric")


@lru_cache(maxsize=None)
def alternating_group(k: int) -> FiniteGroup:
    if k < 1:
        raise GroupError(f"alternating degree must be at least 1, got {k}")
    _require_order_within_cap(f"alt:{k}", range(3, k + 1))
    perms = [p for p in itertools.permutations(range(k)) if perm_parity(p) == 0]
    return _perm_group(perms, "alternating")


def build_named_group(descriptor: str) -> FiniteGroup:
    """Build a group from a descriptor: cyclic:n, dihedral:n, sym:k, alt:k,
    or file:<path> for a Cayley-table text file."""
    head, sep, arg = descriptor.partition(":")
    if not sep:
        raise GroupError(f"malformed group descriptor {descriptor!r}")
    head = head.strip()
    arg = arg.strip()
    if head == "file":
        return load_cayley_file(arg)
    try:
        n = int(arg)
    except ValueError:
        raise GroupError(f"descriptor {descriptor!r}: {arg!r} is not an integer") from None
    builders = {
        "cyclic": cyclic_group,
        "dihedral": dihedral_group,
        "sym": symmetric_group,
        "alt": alternating_group,
    }
    if head not in builders:
        raise GroupError(f"unknown group kind {head!r} in {descriptor!r}")
    return builders[head](n)


# ---------------------------------------------------------------------------
# Cayley-table text format
#
#   line 1: n
#   lines 2..n+1: n whitespace-separated indices each
#   optional last line: "names: n0 n1 ..." with n whitespace-separated names


def loads_cayley(text: str) -> FiniteGroup:
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip()
    ]
    if not lines:
        raise CayleyFileError("empty table", line=1)
    first_no, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise CayleyFileError(
            f"expected the element count, found {first!r}", line=first_no, column=1
        ) from None
    if n < 1:
        raise CayleyFileError("element count must be positive", line=first_no, column=1)
    if n > GROUP_ORDER_CAP:
        raise CapExceededError(
            f"the table's order {n} exceeds the cap of {GROUP_ORDER_CAP}"
        )
    if len(lines) < n + 1:
        raise CayleyFileError(
            f"expected {n} table rows, found {len(lines) - 1}",
            line=lines[-1][0],
        )
    rows = []
    for r in range(n):
        line_no, line = lines[1 + r]
        toks = line.split()
        if len(toks) != n:
            raise CayleyFileError(
                f"row {r} has {len(toks)} entries, expected {n}",
                line=line_no,
                column=min(len(toks), n) + 1,
            )
        row = []
        for cidx, tok in enumerate(toks):
            try:
                v = int(tok)
            except ValueError:
                raise CayleyFileError(
                    f"entry {tok!r} is not an integer", line=line_no, column=cidx + 1
                ) from None
            if not 0 <= v < n:
                raise CayleyFileError(
                    f"entry {v} out of range 0..{n - 1}", line=line_no, column=cidx + 1
                )
            row.append(v)
        rows.append(tuple(row))
    names: tuple[str, ...] | None = None
    rest = lines[1 + n :]
    if rest:
        line_no, line = rest[0]
        if not line.startswith("names:"):
            raise CayleyFileError(
                "unexpected extra line (only a trailing 'names:' line is allowed)",
                line=line_no,
            )
        toks = line[len("names:") :].split()
        if len(toks) != n:
            raise CayleyFileError(
                f"names line has {len(toks)} names, expected {n}",
                line=line_no,
                column=min(len(toks), n) + 1,
            )
        if len(set(toks)) < n:
            repeated = next(t for c, t in enumerate(toks) if t in toks[:c])
            raise CayleyFileError(f"name {repeated!r} is repeated", line=line_no)
        names = tuple(toks)
        if len(rest) > 1:
            raise CayleyFileError("unexpected content after names line", line=rest[1][0])

    table = tuple(rows)
    for identity in range(n):
        if all(table[identity][a] == a == table[a][identity] for a in range(n)):
            break
    else:
        raise CayleyFileError("table has no two-sided identity element")
    if identity != 0:
        # relabel by swapping 0 and the identity so that index 0 is neutral
        swap = list(range(n))
        swap[0], swap[identity] = identity, 0
        table = tuple(
            tuple(swap[table[swap[a]][swap[b]]] for b in range(n)) for a in range(n)
        )
        if names is not None:
            names = tuple(names[swap[a]] for a in range(n))
    try:
        return FiniteGroup(n, table, names, "file")
    except GroupError as exc:
        raise CayleyFileError(str(exc)) from None


def load_cayley_file(path) -> FiniteGroup:
    p = Path(path)
    if not p.is_file():
        raise CayleyFileError(f"no such table file: {path}")
    return loads_cayley(p.read_text())


def _cayley_lines(G: FiniteGroup):
    """The lines of the Cayley-table text format, without newlines."""
    yield str(G.order)
    yield from (" ".join(map(str, row)) for row in G.table)
    if G.names:
        yield "names: " + " ".join(G.names)


def dumps_cayley(G: FiniteGroup) -> str:
    return "\n".join(_cayley_lines(G)) + "\n"


# ---------------------------------------------------------------------------
# element and subgroup descriptors (used by the CLI and the check catalog)

_DIHEDRAL_TOKEN = re.compile(r"^(x?)(y(?:\^?(\d+))?)?$")


def element_index(G: FiniteGroup, token: str) -> int:
    """Resolve a textual element descriptor to its index. Accepts the
    element's display name, cycle notation for permutation groups, x/y power
    words for dihedral groups, and residues for cyclic groups."""
    tok = token.strip()
    if not tok:
        raise GroupError("empty element descriptor")
    if G.names and tok in G.names:
        return G.names.index(tok)
    if G.kind in ("symmetric", "alternating"):
        # sym:k has order k!, alt:k has k!/2 (or 1 for k <= 2)
        size = G.order * (2 if G.kind == "alternating" else 1)
        degree = next(k for k in itertools.count(1) if math.factorial(k) >= size)
        try:
            name = format_cycles(parse_cycles(tok, degree))
        except ValueError as exc:
            raise GroupError(f"bad cycle descriptor {tok!r}: {exc}") from None
        if G.names and name in G.names:
            return G.names.index(name)
        raise GroupError(f"no element {tok!r} in this group")
    if G.kind == "dihedral":
        n = G.order // 2
        m = _DIHEDRAL_TOKEN.match(tok)
        if m and (m.group(1) or m.group(2)):
            a = 1 if m.group(1) else 0
            if m.group(2) is None:
                i = 0
            elif m.group(3) is None:
                i = 1
            else:
                i = int(m.group(3)) % n
            return a * n + i
        raise GroupError(f"bad dihedral element descriptor {tok!r}")
    if G.kind == "cyclic":
        try:
            v = int(tok)
        except ValueError:
            raise GroupError(f"bad residue {tok!r}") from None
        if not 0 <= v < G.order:
            raise GroupError(f"residue {v} out of range 0..{G.order - 1}")
        return v
    try:
        v = int(tok)
    except ValueError:
        raise GroupError(f"no element named {tok!r}") from None
    if not 0 <= v < G.order:
        raise GroupError(f"element index {v} out of range 0..{G.order - 1}")
    return v


def parse_subgroup(G: FiniteGroup, text: str) -> Subgroup:
    """Parse a generator list (tokens separated by whitespace or ';') and
    return the subgroup they generate."""
    tokens = [t for t in re.split(r"[;\s]+", text.strip()) if t]
    if not tokens:
        raise GroupError("empty subgroup descriptor")
    gens = [element_index(G, t) for t in tokens]
    return generated_subgroup(G, gens)
