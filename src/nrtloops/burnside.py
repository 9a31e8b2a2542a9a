"""The affine group of the line over a prime field, its cycle index, and
orbit counts of its action on subsets of residues.

Everything here is exact: coefficients are fractions.Fraction and the final
counts are checked to be integers before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .perms import CapExceededError, cycle_count, cycle_type

AFFINE_PRIME_CAP = 31
NAIVE_SCAN_CAP = 13


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def euler_phi(n: int) -> int:
    """Count of residues coprime to n."""
    if n < 1:
        raise ValueError("euler_phi needs a positive argument")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"expected an odd prime, got {p}")


@lru_cache(maxsize=None)
def affine_maps(p: int) -> tuple[tuple[int, ...], ...]:
    """All p(p-1) affine maps x -> mu*x + t mod p, mu nonzero, as
    permutations of the residues in (mu, t) order. They form a group by
    construction, so closure is not checked here."""
    _require_odd_prime(p)
    if p > AFFINE_PRIME_CAP:
        raise CapExceededError(f"affine_maps is capped at p = {AFFINE_PRIME_CAP}")
    params = ((mu, t) for mu in range(1, p) for t in range(p))
    return tuple(tuple((mu * x + t) % p for x in range(p)) for mu, t in params)


# ---------------------------------------------------------------------------
# cycle index


CycleType = tuple[tuple[int, int], ...]


def _term_weight(ctype: CycleType) -> int:
    return sum(length * count for length, count in ctype)


def _term_cycles(ctype: CycleType) -> int:
    return sum(count for _, count in ctype)


@dataclass(frozen=True)
class CycleIndex:
    """Average of cycle-type monomials over a permutation group, stored as
    (cycle type, coefficient) terms with exact rational coefficients."""

    degree: int
    terms: tuple[tuple[CycleType, Fraction], ...]

    def __post_init__(self):
        seen = set()
        total = Fraction(0)
        for ctype, coeff in self.terms:
            if ctype in seen:
                raise ValueError(f"duplicate term {ctype}")
            seen.add(ctype)
            if coeff <= 0:
                raise ValueError("coefficients must be positive")
            if _term_weight(ctype) != self.degree:
                raise ValueError(
                    f"term {ctype} has weight {_term_weight(ctype)}, "
                    f"expected {self.degree}"
                )
            total += coeff
        if total != 1:
            raise ValueError(f"coefficients sum to {total}, expected 1")
        canonical = tuple(
            sorted(self.terms, key=lambda tc: (-_term_cycles(tc[0]), tc[0]))
        )
        object.__setattr__(self, "terms", canonical)

    def __repr__(self):
        return f"CycleIndex(degree={self.degree}, terms={len(self.terms)})"


def cycle_index_from_permutations(perms) -> CycleIndex:
    """Exact cycle index of a nonempty list of same-degree permutations."""
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    if any(len(p) != degree for p in perms):
        raise ValueError("permutations must share one degree")
    counts: dict[CycleType, int] = {}
    for p in perms:
        ctype = cycle_type(tuple(p))
        counts[ctype] = counts.get(ctype, 0) + 1
    total = len(perms)
    terms = tuple((ctype, Fraction(k, total)) for ctype, k in counts.items())
    return CycleIndex(degree, terms)


def affine_cycle_index(p: int) -> CycleIndex:
    """Closed-form cycle index of the affine maps mod p.

    The group has order p(p-1); the identity contributes x1^p, the p-cycles
    (translations) contribute (p-1) x_p, and for each divisor d > 1 of p-1
    the maps of multiplier order d contribute p*phi(d) copies of
    x1 * x_d^((p-1)/d)."""
    _require_odd_prime(p)
    order = p * (p - 1)
    terms = [((1, p),), ((p, 1),)]
    coeffs = [Fraction(1, order), Fraction(p - 1, order)]
    for d in range(2, p):
        if (p - 1) % d == 0:
            terms.append(((1, 1), (d, (p - 1) // d)))
            coeffs.append(Fraction(p * euler_phi(d), order))
    return CycleIndex(p, tuple(zip(terms, coeffs)))


def evaluate_cycle_index(index: CycleIndex, value) -> Fraction:
    """Substitute one value for every indeterminate; each term becomes
    value raised to its total cycle count."""
    v = Fraction(value)
    return sum(
        (coeff * v ** _term_cycles(ctype) for ctype, coeff in index.terms),
        Fraction(0),
    )


def dihedral_isotopy_count(p: int) -> int:
    """Number of isotopy classes of transversals of an order-2 reflection
    subgroup in the dihedral group of order 2p: half the cycle index of the
    affine maps evaluated at 2."""
    value = evaluate_cycle_index(affine_cycle_index(p), 2)
    if value.denominator != 1 or value.numerator % 2 != 0:
        raise ArithmeticError(f"expected an even integer, got {value}")
    return value.numerator // 2


def format_cycle_index(index: CycleIndex) -> str:
    """Canonical text form, e.g. (1/20)(x1^5 + 5 x1 x2^2 + 10 x1 x4 + 4 x5)."""
    denom = math.lcm(*(coeff.denominator for _, coeff in index.terms))
    parts = []
    for ctype, coeff in index.terms:
        mult = coeff * denom
        if mult.denominator != 1:
            raise AssertionError("common denominator failed")
        factors = " ".join(
            f"x{length}" + (f"^{count}" if count > 1 else "")
            for length, count in ctype
        )
        prefix = "" if mult == 1 else f"{mult.numerator} "
        parts.append(prefix + factors)
    return f"(1/{denom})(" + " + ".join(parts) + ")"


def cycle_index_json_obj(p: int, index: CycleIndex) -> dict:
    return {
        "p": p,
        "terms": [
            {
                "type": [[length, count] for length, count in ctype],
                "num": coeff.numerator,
                "den": coeff.denominator,
            }
            for ctype, coeff in index.terms
        ],
    }


# ---------------------------------------------------------------------------
# orbit counting on subsets


def subset_orbit_count(p: int) -> int:
    """Orbits of the affine action on subsets of residues mod p, by the
    average fixed-subset count: a map fixes 2^(number of its cycles)
    subsets, since a fixed subset is a union of cycles."""
    _require_odd_prime(p)
    maps = affine_maps(p)
    total = sum(2 ** cycle_count(m) for m in maps)
    if total % len(maps) != 0:
        raise ArithmeticError("orbit average is not an integer")
    return total // len(maps)


def subset_orbit_count_naive(p: int) -> int:
    """Same count by scanning all 2^p subsets per map; slow test oracle."""
    _require_odd_prime(p)
    if p > NAIVE_SCAN_CAP:
        raise CapExceededError(
            f"subset_orbit_count_naive is capped at p = {NAIVE_SCAN_CAP}"
        )
    maps = affine_maps(p)
    total = 0
    for perm in maps:
        for mask in range(1 << p):
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            if image == mask:
                total += 1
    if total % len(maps) != 0:
        raise ArithmeticError("orbit average is not an integer")
    return total // len(maps)
