"""Rank domains and contributor/user resolution.

Each rank owns a contiguous range of Morton *cells* (``MAX_DEPTH``-level
lattice positions): Ω_k = ``[bounds[k], bounds[k+1])``.  Because leaves are
distributed as whole units of the Morton-sorted array, every leaf is wholly
inside one rank's range, and every geometric region of interest (an octant,
or the 3x3x3 neighbourhood of an octant's parent) is a short list of cell
intervals whose overlapping ranks form contiguous rank intervals — so all
contributor/user queries reduce to ``searchsorted`` on the (p+1) bounds.

Definitions (paper §III-A):

* contributors ``P_c(β)`` — ranks whose Ω overlaps β's own region;
* users ``P_u(β)`` — ranks whose Ω overlaps the colleague region of
  ``P(β)``.  We take the *inclusive* 3x3x3 block around ``P(β)`` (the
  parent box itself plus its 26 same-level neighbours): the parent's own
  region covers same-parent U/V partners, which the bare colleague set
  would miss for ranks nested strictly inside ``P(β)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import concat_ranges
from repro.mpi.comm import SimComm
from repro.util import morton

__all__ = ["RankGeometry", "cell_range"]


def cell_range(octs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open Morton cell interval ``[lo, hi)`` of each octant."""
    octs = np.asarray(octs, dtype=np.uint64)
    lo = morton.deepest_first_descendant(octs) >> np.uint64(morton.LEVEL_BITS)
    hi = (morton.deepest_last_descendant(octs) >> np.uint64(morton.LEVEL_BITS)) + np.uint64(1)
    return lo.astype(np.int64), hi.astype(np.int64)


def _parent_neighborhood_ranges(octs: np.ndarray):
    """Cell intervals of the inclusive 3x3x3 block around each parent.

    Returns ``(lo, hi)`` arrays of shape ``(n, 27)``; invalid (out of
    domain) slots carry an empty interval.
    """
    octs = np.atleast_1d(np.asarray(octs, dtype=np.uint64))
    parents = morton.parent(octs)
    nb, valid = morton.neighbors(parents)
    lo = np.zeros((octs.size, 27), dtype=np.int64)
    hi = np.zeros((octs.size, 27), dtype=np.int64)
    plo, phi = cell_range(parents)
    lo[:, 0], hi[:, 0] = plo, phi
    nlo, nhi = cell_range(nb.ravel())
    nlo = nlo.reshape(octs.size, 26)
    nhi = nhi.reshape(octs.size, 26)
    lo[:, 1:] = np.where(valid, nlo, 0)
    hi[:, 1:] = np.where(valid, nhi, 0)
    return lo, hi


@dataclass
class RankGeometry:
    """Global domain decomposition: cell-range bounds per rank."""

    bounds: np.ndarray  # (p+1,) int64 cell starts, monotone

    @property
    def size(self) -> int:
        return self.bounds.size - 1

    @classmethod
    def from_leaves(cls, comm: SimComm, leaves: np.ndarray) -> "RankGeometry":
        """Allgather per-rank first-cell boundaries from owned leaf sets.

        Requires every rank to own at least one leaf and the global leaf
        set to tile the unit cube contiguously in Morton order.
        """
        if leaves.size == 0:
            raise ValueError(f"rank {comm.rank} owns no leaves")
        lo, _ = cell_range(leaves[:1])
        firsts = comm.allgather(int(lo[0]))
        n_cells = 1 << (3 * morton.MAX_DEPTH)
        bounds = np.array(firsts + [n_cells], dtype=np.int64)
        if not np.all(np.diff(bounds) > 0):
            raise ValueError("rank domains must be non-empty and ordered")
        return cls(bounds)

    # -- queries -----------------------------------------------------------

    def rank_interval(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Ranks overlapping cell interval(s) ``[lo, hi)`` as ``[r0, r1)``."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        r0 = np.searchsorted(self.bounds, lo, side="right") - 1
        r1 = np.searchsorted(self.bounds, hi, side="left")
        r0 = np.clip(r0, 0, self.size)
        r1 = np.clip(r1, 0, self.size)
        return r0, np.maximum(r1, r0)

    def owner_of_octants(self, octs: np.ndarray) -> np.ndarray:
        """Rank owning each octant's *first* cell (the paper's owner rule)."""
        lo, _ = cell_range(octs)
        return np.clip(
            np.searchsorted(self.bounds, lo, side="right") - 1, 0, self.size - 1
        )

    def contributor_intervals(self, octs: np.ndarray):
        """Contiguous contributor rank interval ``[r0, r1)`` per octant."""
        lo, hi = cell_range(octs)
        return self.rank_interval(lo, hi)

    def user_pairs(self, octs: np.ndarray):
        """(octant index, user rank) pairs, deduplicated.

        Users are ranks overlapping the inclusive parent neighbourhood.
        """
        octs = np.atleast_1d(np.asarray(octs, dtype=np.uint64))
        lo, hi = _parent_neighborhood_ranges(octs)
        r0, r1 = self.rank_interval(lo, hi)
        counts = np.where(hi > lo, r1 - r0, 0)
        rows = np.repeat(np.arange(octs.size), counts.sum(axis=1))
        ranks = concat_ranges(r0.ravel(), counts.ravel())
        code = rows * np.int64(self.size) + ranks
        code = morton.sorted_unique(code)
        return code // self.size, code % self.size

    def user_overlaps_range(
        self, octs: np.ndarray, cell_lo: int, cell_hi: int
    ) -> np.ndarray:
        """True per octant when its user region overlaps ``[cell_lo, cell_hi)``.

        This is the filter of Algorithm 3 (steps 4 and 7): "octants whose
        interaction region touches the domain of ranks us..ue".
        """
        lo, hi = _parent_neighborhood_ranges(octs)
        overlap = (lo < cell_hi) & (hi > cell_lo) & (hi > lo)
        return overlap.any(axis=1)

    def is_shared(self, octs: np.ndarray, rank: int) -> np.ndarray:
        """True when contributors ∪ users contains a rank other than ``rank``.

        This is the paper's "shared octant" predicate for Algorithm 3.
        """
        octs = np.atleast_1d(np.asarray(octs, dtype=np.uint64))
        c0, c1 = self.contributor_intervals(octs)
        multi = (c1 - c0) > 1
        solo_other = (c1 - c0 == 1) & (c0 != rank)
        out = multi | solo_other
        # users beyond this rank?
        rows, ranks = self.user_pairs(octs)
        other = ranks != rank
        out[rows[other]] = True
        return out
