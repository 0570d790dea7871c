"""Upward-density reduction for shared octants.

Two implementations of the paper's second+third communication steps
("sum up the upward densities of all the contributors of each octant ...
then broadcast the complete densities to the users"):

* :func:`hypercube_reduce_scatter` — paper **Algorithm 3**: ``log2 p``
  rounds over the hypercube dimensions; at round ``i`` each rank exchanges
  with ``r XOR 2^i`` the shared octants whose *user region* can still
  reach the partner's half of the address space, summing duplicates.
  Communication complexity ``O(t_s log p + t_w m (3 sqrt(p) - 2))``.

* :func:`owner_reduce_scatter` — the retired baseline: every shared octant
  has an owner rank; contributors send partials to the owner, the owner
  sums and sends the result to every user.  Near the root an octant can
  have O(p) users, which is exactly why this "worked well on up to 32K
  processes, but failed in the 64K case".

Both take and return ``(keys, densities)`` arrays of this rank's shared
octants and are interchangeable; equality is tested against each other and
against a serial reduction.
"""

from __future__ import annotations

import numpy as np

from repro.dist.geometry import RankGeometry
from repro.mpi.comm import SimComm

__all__ = ["hypercube_reduce_scatter", "owner_reduce_scatter"]

_TAG_HC = 7400
_TAG_OWN_CNT = 7500
_TAG_OWN = 7501
_TAG_USR = 7502


def _merge_sum(keys: np.ndarray, dens: np.ndarray):
    """Combine duplicate octants by summing their density vectors."""
    uniq, inv = np.unique(keys, return_inverse=True)
    if uniq.size == keys.size:
        order = np.argsort(keys, kind="stable")
        return keys[order], dens[order]
    out = np.zeros((uniq.size, dens.shape[1]), dtype=dens.dtype)
    np.add.at(out, inv, dens)
    return uniq, out


def _memo(memo: dict, name, keys: np.ndarray, compute):
    """``compute(keys)``, kept in ``memo`` for the next call with the same
    keys: a step's keys follow from the geometry alone."""
    hit = memo.get(name)
    if hit is None or not np.array_equal(hit[0], keys):
        hit = memo[name] = (keys, compute(keys))
    return hit[1]


def hypercube_reduce_scatter(
    comm: SimComm,
    geometry: RankGeometry,
    keys: np.ndarray,
    dens: np.ndarray,
    memo: dict | None = None,
):
    """Paper Algorithm 3 (REDUCE AND SCATTER).

    Parameters
    ----------
    keys / dens:
        This rank's *partial* upward densities of its shared octants
        (one row per octant).
    memo:
        Keeps each round's send / keep masks across calls (:func:`_memo`).
    Returns
    -------
    (keys, dens):
        Complete (fully summed) densities of every shared octant whose
        user region overlaps this rank's domain.
    """
    p, r = comm.size, comm.rank
    if p & (p - 1) != 0:
        raise ValueError("Algorithm 3 requires a power-of-two communicator")
    keys = np.asarray(keys, dtype=np.uint64)
    dens = np.asarray(dens, dtype=np.float64)
    if dens.ndim != 2 or dens.shape[0] != keys.size:
        raise ValueError("dens must be (n_octants, width)")
    keys, dens = _merge_sum(keys, dens)
    memo = {} if memo is None else memo
    d = p.bit_length() - 1
    bounds = geometry.bounds
    for i in range(d - 1, -1, -1):
        s = r ^ (1 << i)
        # octants used by the ranks reachable through s in the remaining
        # rounds, and by the ranks this copy can still serve locally
        send_mask, keep_mask = _memo(memo, i, keys, lambda k: tuple(
            geometry.user_overlaps_range(
                k, int(bounds[x & (p - (1 << i))]), int(bounds[(x | ((1 << i) - 1)) + 1])
            ) if k.size else np.empty(0, dtype=bool) for x in (s, r)))
        other_keys, other_dens = comm.sendrecv(
            (keys[send_mask], dens[send_mask]), s, _TAG_HC
        )
        keys = np.concatenate([keys[keep_mask], other_keys])
        dens = np.concatenate([dens[keep_mask], other_dens])
        keys, dens = _merge_sum(keys, dens)
    return keys, dens


def owner_reduce_scatter(
    comm: SimComm,
    geometry: RankGeometry,
    keys: np.ndarray,
    dens: np.ndarray,
    memo: dict | None = None,
):
    """Owner-based baseline (the scheme the paper replaced).

    Every shared octant is reduced at its owner (the rank holding its
    first Morton cell) and then sent to each user rank individually.
    ``memo`` keeps the owners and user rows across calls (:func:`_memo`).
    """
    p, r = comm.size, comm.rank
    keys = np.asarray(keys, dtype=np.uint64)
    dens = np.asarray(dens, dtype=np.float64)
    keys, dens = _merge_sum(keys, dens)
    memo = {} if memo is None else memo

    # contributors -> owners
    owners = _memo(memo, "owners", keys, lambda k: geometry.owner_of_octants(k)
                   if k.size else np.empty(0, np.int64))
    blocks = []
    for dest in range(p):
        sel = owners == dest
        blocks.append((keys[sel], dens[sel]))
    received = comm.alltoall(blocks)
    okeys = np.concatenate([blk[0] for blk in received])
    odens = np.concatenate([blk[1] for blk in received])
    okeys, odens = _merge_sum(okeys, odens)

    # owners -> users, point-to-point per user rank (the scaling problem:
    # root-level octants have up to p users)
    rows, ranks = _memo(memo, "users", okeys, lambda k: geometry.user_pairs(k) if k.size
                        else (np.empty(0, np.int64), np.empty(0, np.int64)))
    out_counts = np.zeros(p, dtype=np.int64)
    for dest in range(p):
        out_counts[dest] = int(np.sum(ranks == dest))
    in_counts = comm.alltoall(list(out_counts))
    for dest in range(p):
        sel = rows[ranks == dest]
        if dest == r:
            continue
        if out_counts[dest]:
            comm.send((okeys[sel], odens[sel]), dest, _TAG_USR)
    fkeys = [okeys[rows[ranks == r]]]
    fdens = [odens[rows[ranks == r]]]
    for src in range(p):
        if src == r or in_counts[src] == 0:
            continue
        k2, d2 = comm.recv(src, _TAG_USR)
        fkeys.append(k2)
        fdens.append(d2)
    keys = np.concatenate(fkeys)
    dens = np.concatenate(fdens)
    # users may receive duplicates only if an octant reduced at multiple
    # owners — impossible — so this is a plain sort.
    order = np.argsort(keys, kind="stable")
    return keys[order], dens[order]
