"""Hash-function families and their search neighbourhoods (Sec. 3.2).

The paper runs the same hill climbing for every family — general
XOR-functions, fan-in-limited XOR-functions, permutation-based
functions and bit-selecting functions — only the set of admissible
moves changes.  A move replaces a single column mask, which changes the
null space by at most one dimension, matching the paper's neighbourhood
(``dim(V ∩ V') = dim V - 1``).

For the structured families (permutation-based, bit-select) the set of
legal masks per column is small enough to enumerate exhaustively, so
the neighbourhood is *every* legal replacement of one column.  For the
general family we enumerate masks within Hamming distance 2 of the
current column (single-input changes plus input swaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.gf2.bitvec import popcount
from repro.gf2.hashfn import XorHashFunction
from repro.names import FAMILY_CHOICES, parse_family

__all__ = [
    "FunctionFamily",
    "GeneralXorFamily",
    "PermutationFamily",
    "BitSelectFamily",
    "FAMILY_CHOICES",
    "family_for_name",
]

@dataclass(frozen=True)
class FunctionFamily:
    """Base class; concrete families override the three hooks."""

    n: int
    m: int

    def start(self) -> XorHashFunction:
        """The paper's starting point: the conventional modulo function."""
        return XorHashFunction.modulo(self.n, self.m)

    def contains(self, fn: XorHashFunction) -> bool:
        """Whether ``fn`` satisfies the family's structural constraints."""
        raise NotImplementedError

    def column_candidates(self, fn: XorHashFunction, c: int) -> np.ndarray:
        """Masks that may replace column ``c`` (excluding the current one)."""
        raise NotImplementedError

    def column_domain(self, c: int) -> np.ndarray:
        """Every admissible mask for column ``c``, independent of any
        current function — the absolute per-position alphabet that
        exact searches (``repro.search.branch_bound``) assign one
        position at a time.  ``column_candidates`` is the *relative*
        neighbourhood view of the same sets."""
        raise NotImplementedError

    def random_member(self, rng) -> XorHashFunction:
        """A random full-rank member (used for search restarts)."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GeneralXorFamily(FunctionFamily):
    """XOR-functions with at most ``max_fan_in`` inputs per gate.

    ``max_fan_in=None`` means unrestricted (the paper's '16-in').
    """

    max_fan_in: int | None = None

    def __post_init__(self):
        if self.max_fan_in is not None and self.max_fan_in < 1:
            raise ValueError(f"max_fan_in must be >= 1, got {self.max_fan_in}")

    @property
    def fan_in(self) -> int:
        return self.max_fan_in if self.max_fan_in is not None else self.n

    @property
    def name(self) -> str:
        return f"{self.fan_in}-in" if self.max_fan_in is not None else "general"

    def contains(self, fn: XorHashFunction) -> bool:
        return fn.n == self.n and fn.m == self.m and fn.max_fan_in <= self.fan_in

    def column_candidates(self, fn: XorHashFunction, c: int) -> np.ndarray:
        current = fn.columns[c]
        seen = {current, 0}
        out = []
        # Hamming distance 1: add or drop one XOR input.
        for r in range(self.n):
            cand = current ^ (1 << r)
            if cand not in seen and popcount(cand) <= self.fan_in:
                seen.add(cand)
                out.append(cand)
        # Hamming distance 2: swap one input for another in a single move,
        # so fan-in-saturated gates can still be rewired.
        for r1, r2 in combinations(range(self.n), 2):
            cand = current ^ (1 << r1) ^ (1 << r2)
            if cand not in seen and popcount(cand) <= self.fan_in:
                seen.add(cand)
                out.append(cand)
        return np.array(out, dtype=np.uint64)

    def column_domain(self, c: int) -> np.ndarray:
        """All non-zero masks of fan-in at most ``fan_in`` (any column).

        ``2^n - 1`` values before the fan-in filter, so this is only
        enumerable for the small windows exact search targets.
        """
        if self.n > 20:
            raise ValueError(
                f"general column domain has 2^{self.n} masks; "
                "exact search over it is intractable beyond n=20"
            )
        masks = np.arange(1, 1 << self.n, dtype=np.uint64)
        if self.fan_in < self.n:
            weights = np.zeros(len(masks), dtype=np.int64)
            for r in range(self.n):
                weights += ((masks >> np.uint64(r)) & np.uint64(1)).astype(
                    np.int64
                )
            masks = masks[weights <= self.fan_in]
        return masks

    def random_member(self, rng) -> XorHashFunction:
        return XorHashFunction.random(
            self.n, self.m, rng, max_fan_in=self.max_fan_in
        )


@dataclass(frozen=True)
class PermutationFamily(FunctionFamily):
    """Permutation-based functions (Sec. 4) with bounded fan-in.

    Column ``c`` is ``e_c`` XOR any subset of the high-order bits
    ``m..n-1`` with at most ``max_fan_in - 1`` elements.  The legal-mask
    set per column is tiny, so the neighbourhood enumerates all of it.
    """

    max_fan_in: int | None = None

    def __post_init__(self):
        if self.max_fan_in is not None and self.max_fan_in < 1:
            raise ValueError(f"max_fan_in must be >= 1, got {self.max_fan_in}")

    @property
    def fan_in(self) -> int:
        return self.max_fan_in if self.max_fan_in is not None else self.n

    @property
    def name(self) -> str:
        base = "perm"
        if self.max_fan_in is not None:
            return f"{base}-{self.max_fan_in}in"
        return base

    def contains(self, fn: XorHashFunction) -> bool:
        return (
            fn.n == self.n
            and fn.m == self.m
            and fn.is_permutation_based
            and fn.max_fan_in <= self.fan_in
        )

    def _high_subsets(self) -> list[int]:
        """All admissible high-order masks (subsets of bits m..n-1 with
        at most ``fan_in - 1`` members)."""
        high_bits = list(range(self.m, self.n))
        budget = min(self.fan_in - 1, len(high_bits))
        subsets = [0]
        for k in range(1, budget + 1):
            for combo in combinations(high_bits, k):
                value = 0
                for bit in combo:
                    value |= 1 << bit
                subsets.append(value)
        return subsets

    def _high_subset_array(self) -> np.ndarray:
        """Cached ``uint64`` array of :meth:`_high_subsets`.

        The subset list only depends on the (frozen) family parameters,
        and the search asks for it every column of every step — up to
        ``2^(n-m)`` entries each time, so memoization matters.
        """
        cached = self.__dict__.get("_subset_cache")
        if cached is None:
            cached = np.array(self._high_subsets(), dtype=np.uint64)
            object.__setattr__(self, "_subset_cache", cached)
        return cached

    def column_candidates(self, fn: XorHashFunction, c: int) -> np.ndarray:
        current = fn.columns[c]
        candidates = np.uint64(1 << c) | self._high_subset_array()
        return candidates[candidates != np.uint64(current)]

    def column_domain(self, c: int) -> np.ndarray:
        """``e_c`` XOR each admissible high-order subset."""
        if not 0 <= c < self.m:
            raise IndexError(f"column {c} out of range for m={self.m}")
        return np.uint64(1 << c) | self._high_subset_array()

    def random_member(self, rng) -> XorHashFunction:
        subsets = self._high_subsets()
        if hasattr(rng, "integers"):
            picks = [int(rng.integers(0, len(subsets))) for _ in range(self.m)]
        else:
            picks = [rng.randrange(len(subsets)) for _ in range(self.m)]
        columns = [(1 << c) | subsets[p] for c, p in zip(range(self.m), picks)]
        return XorHashFunction(self.n, columns)


@dataclass(frozen=True)
class BitSelectFamily(FunctionFamily):
    """Plain bit selection (the paper's '1-in' columns in Table 3)."""

    @property
    def name(self) -> str:
        return "bit-select"

    def contains(self, fn: XorHashFunction) -> bool:
        return fn.n == self.n and fn.m == self.m and fn.is_bit_selecting

    def column_candidates(self, fn: XorHashFunction, c: int) -> np.ndarray:
        current = fn.columns[c]
        used = set(fn.columns)
        out = [
            1 << r
            for r in range(self.n)
            if (1 << r) != current and (1 << r) not in used
        ]
        return np.array(out, dtype=np.uint64)

    def column_domain(self, c: int) -> np.ndarray:
        """Every single bit; distinctness across columns is enforced by
        the full-rank screen of the consuming search."""
        if not 0 <= c < self.m:
            raise IndexError(f"column {c} out of range for m={self.m}")
        return np.uint64(1) << np.arange(self.n, dtype=np.uint64)

    def random_member(self, rng) -> XorHashFunction:
        bits = list(range(self.n))
        if hasattr(rng, "shuffle"):
            rng.shuffle(bits)
        selected = sorted(bits[: self.m])
        return XorHashFunction.bit_select(self.n, selected)


def family_for_name(name: str, n: int, m: int) -> FunctionFamily:
    """Resolve the paper's column labels to family objects.

    ``"1-in"``/``"bit-select"``, ``"2-in"``, ``"4-in"``, ``"16-in"``
    (permutation-based per Sec. 6), ``"general"`` (unrestricted XOR).
    """
    kind, fan_in = parse_family(name, n)
    if kind == "bit-select":
        return BitSelectFamily(n, m)
    if kind == "general":
        return GeneralXorFamily(n, m, max_fan_in=None)
    return PermutationFamily(n, m, max_fan_in=fan_in)
