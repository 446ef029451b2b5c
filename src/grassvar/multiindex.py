"""Strictly increasing multi-indices and antisymmetrization signs.

Every antisymmetric component array in this package stores one value per
strictly increasing k-tuple (i_1 < i_2 < ... < i_k) with entries in 1..m,
laid out in lexicographic order.  ``rank`` is the single source of truth
for that layout; values at non-increasing tuples are reconstructed by
permutation sign.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import InvalidDegreeError, InvalidIndexError


@dataclass(frozen=True)
class MultiIndex:
    """A strictly increasing tuple of k indices in 1..m."""

    indices: tuple[int, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        k = len(self.indices)
        if not 1 <= k <= self.m:
            raise InvalidDegreeError(f"degree {k} not in 1..{self.m}")
        for i in self.indices:
            if not 1 <= i <= self.m:
                raise InvalidIndexError(f"index {i} not in 1..{self.m}")
        if any(a >= b for a, b in itertools.pairwise(self.indices)):
            raise InvalidIndexError(f"indices {self.indices} not strictly increasing")

    @property
    def k(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __str__(self) -> str:
        return "(" + ",".join(str(i) for i in self.indices) + ")"


@lru_cache(maxsize=None)
def enumerate_multiindices(k: int, m: int) -> tuple[MultiIndex, ...]:
    """All C(m, k) increasing k-tuples in 1..m, lexicographically ordered."""
    if k < 1 or k > m:
        raise InvalidDegreeError(f"degree {k} not in 1..{m}")
    return tuple(
        MultiIndex(c, m) for c in itertools.combinations(range(1, m + 1), k)
    )


@lru_cache(maxsize=None)
def _rank_table(k: int, m: int) -> dict[tuple[int, ...], int]:
    return {mi.indices: r for r, mi in enumerate(enumerate_multiindices(k, m))}


def rank(index: MultiIndex) -> int:
    """Position of ``index`` in the ``enumerate_multiindices`` ordering."""
    return _rank_table(index.k, index.m)[index.indices]


def permutation_sign(t: Sequence[int]) -> int:
    """Parity of the permutation sorting ``t``; 0 if ``t`` has repeats."""
    if len(set(t)) < len(t):
        return 0
    inversions = sum(
        1 for a in range(len(t)) for b in range(a + 1, len(t)) if t[a] > t[b]
    )
    return -1 if inversions % 2 else 1


def normalize_tuple(t: Sequence[int], m: int) -> tuple[MultiIndex, int]:
    """Sort an index tuple into increasing order, tracking the parity sign.

    Returns ``(index, sign)`` with sign in {-1, 0, +1}.  A repeated entry
    yields sign 0 together with a placeholder (but valid) MultiIndex, since
    the corresponding antisymmetric component vanishes regardless.
    """
    t = tuple(int(i) for i in t)
    for i in t:
        if not 1 <= i <= m:
            raise InvalidIndexError(f"index {i} not in 1..{m}")
    sign = permutation_sign(t)
    if sign == 0:
        return MultiIndex(tuple(range(1, len(t) + 1)), m), 0
    return MultiIndex(tuple(sorted(t)), m), sign
