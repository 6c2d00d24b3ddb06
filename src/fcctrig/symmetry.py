"""The permutation group S4 acting on homogeneous coordinates.

A permutation sigma acts on a point by (t sigma)_m = t_{sigma(m)}, i.e. it
permutes the four coordinate slots.  Coordinate labels in the public API
are 1-based (sigma_12 swaps the first two coordinates) to match the usual
reflection notation; internally images are stored 0-based for indexing.

The module builds the full group once, splits it into the even class
G_PLUS and the odd class G_MINUS, and provides the symmetrization and
antisymmetrization projections P+ and P-.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np


@dataclass(frozen=True)
class Perm4:
    """A permutation of 4 slots; images[m] is the source slot of slot m."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != [0, 1, 2, 3]:
            raise ValueError("images must be a permutation of (0, 1, 2, 3)")

    @property
    def parity(self) -> int:
        """+1 for an even number of inversions, -1 for odd."""
        inv = sum(
            1
            for a in range(4)
            for b in range(a + 1, 4)
            if self.images[a] > self.images[b]
        )
        return 1 if inv % 2 == 0 else -1

    def apply(self, t) -> np.ndarray:
        """Permute the last axis: result[..., m] = t[..., images[m]]."""
        t = np.asarray(t)
        return t[..., list(self.images)]

    def __matmul__(self, other: "Perm4") -> "Perm4":
        # (t (self @ other))_m = ((t self) other)_m
        return Perm4(tuple(self.images[other.images[m]] for m in range(4)))

    def inverse(self) -> "Perm4":
        inv = [0] * 4
        for m, src in enumerate(self.images):
            inv[src] = m
        return Perm4(tuple(inv))


IDENTITY = Perm4((0, 1, 2, 3))

GROUP = tuple(Perm4(p) for p in permutations(range(4)))


def transposition(i: int, j: int) -> Perm4:
    """The swap sigma_ij of coordinates i and j (1-based labels)."""
    if not (1 <= i <= 4 and 1 <= j <= 4 and i != j):
        raise ValueError("transposition needs two distinct labels in 1..4")
    images = list(range(4))
    images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return Perm4(tuple(images))


G_PLUS = tuple(p for p in GROUP if p.parity == 1)
G_MINUS = tuple(p for p in GROUP if p.parity == -1)


def act_point(sigma: Perm4, t) -> np.ndarray:
    return sigma.apply(t)


def act_index(sigma: Perm4, k) -> np.ndarray:
    return np.asarray(sigma.apply(np.asarray(k, dtype=np.int64)))


def orbit(k) -> list:
    """Distinct images of k under the group, as int tuples, sorted."""
    k = tuple(int(v) for v in np.asarray(k).reshape(4))
    return sorted({tuple(k[m] for m in p.images) for p in GROUP})


def orbit_size(k) -> int:
    return len(orbit(k))


def project_plus(f, t) -> np.ndarray:
    """P+ f(t) = (1/24) [sum over G+ of f(t sigma) + sum over G- of f(t sigma)]."""
    t = np.asarray(t, dtype=float)
    total = sum(f(p.apply(t)) for p in G_PLUS) + sum(f(p.apply(t)) for p in G_MINUS)
    return total / 24.0


def project_minus(f, t) -> np.ndarray:
    """P- f(t) = (1/24) [sum over G+ of f(t sigma) - sum over G- of f(t sigma)]."""
    t = np.asarray(t, dtype=float)
    plus = sum(f(p.apply(t)) for p in G_PLUS)
    minus = sum(f(p.apply(t)) for p in G_MINUS)
    return (plus - minus) / 24.0


# flattened image table, handy for evaluating all 24 permuted copies at once
PERM_TABLE = np.array([p.images for p in G_PLUS + G_MINUS], dtype=np.int64)
PERM_SIGNS = np.array([1.0] * 12 + [-1.0] * 12)


def all_images(t) -> np.ndarray:
    """Stack of the 24 permuted copies of t, shape (..., 24, 4).

    Order matches PERM_TABLE / PERM_SIGNS (G_PLUS first, then G_MINUS).
    """
    t = np.asarray(t, dtype=float)
    return t[..., PERM_TABLE]
