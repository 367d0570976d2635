"""Expected bytes for every workload, from the seed and the geometry.

Nothing here imports ``repro``: the expected file images and read
buffers are built with NumPy index arithmetic only, so a fault in the
datatype, flattening or engine layers cannot also be in its own check.
"""

from __future__ import annotations

import numpy as np


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def random_bytes(seed: int, shape, *key: int) -> np.ndarray:
    return rng(seed, *key).integers(0, 256, size=shape, dtype=np.uint8)


class Mismatch(AssertionError):
    """Program output differs from the oracle."""


def expect_equal(got: np.ndarray, want: np.ndarray, what: str) -> None:
    got = np.asarray(got).view(np.uint8).reshape(-1)
    want = np.asarray(want).view(np.uint8).reshape(-1)
    if got.size != want.size:
        raise Mismatch(f"{what}: {got.size} bytes, expected {want.size}")
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        raise Mismatch(f"{what}: {bad.size} wrong bytes, first at {i} "
                       f"(got {got[i]}, expected {want[i]})")


# ----------------------------------------------------------------------
# Interleaved strided files (Fig. 5/6 ``noncontig`` geometry)
# ----------------------------------------------------------------------
def interleave(rank_data: np.ndarray, sblock: int) -> np.ndarray:
    """File image of one access of ``P`` interleaved ranks.

    ``rank_data[r]`` holds rank ``r``'s data bytes of the access; rank
    ``r`` owns block ``b`` at file offset ``(b * P + r) * sblock``.
    """
    nprocs, nbytes = rank_data.shape
    blocks = rank_data.reshape(nprocs, nbytes // sblock, sblock)
    return blocks.transpose(1, 0, 2).reshape(-1)


# ----------------------------------------------------------------------
# BT-IO: the u[k][j][i][5] array and its diagonal cell decomposition
# ----------------------------------------------------------------------
BTIO_NCOMP = 5
BTIO_GHOST = 2


def btio_cells(rank: int, q: int):
    """Cells ``(kc, jc, ic)`` of ``rank`` under diagonal
    multi-partitioning: cell ``c`` of process ``(i, j) = (rank % q,
    rank // q)`` lies in k-slab ``c`` at ``((j + c) % q, (i + c) % q)``."""
    i, j = rank % q, rank // q
    return [(c, (j + c) % q, (i + c) % q) for c in range(q)]


def btio_grid(seed: int, n: int, version: int) -> np.ndarray:
    """The global solution array ``u[k][j][i][5]`` of one step version."""
    return rng(seed, 7, version).random((n, n, n, BTIO_NCOMP))


def btio_membuf(grid: np.ndarray, rank: int, q: int) -> np.ndarray:
    """Rank ``rank``'s memory image: its ``q`` ghost-padded cell arrays
    back to back, interiors cut from ``grid``, ghosts zero."""
    n = grid.shape[0]
    edge = n // q
    if n % q:
        raise ValueError("grid edge must divide evenly into cells")
    m = edge + 2 * BTIO_GHOST
    g = BTIO_GHOST
    cells = np.zeros((q, m, m, m, BTIO_NCOMP))
    for c, (kc, jc, ic) in enumerate(btio_cells(rank, q)):
        cells[c, g:g + edge, g:g + edge, g:g + edge] = grid[
            kc * edge:(kc + 1) * edge,
            jc * edge:(jc + 1) * edge,
            ic * edge:(ic + 1) * edge]
    return cells.reshape(-1)


# ----------------------------------------------------------------------
# Round-robin striping (sharded backend)
# ----------------------------------------------------------------------
def unstripe(shard_images, stripe: int, size: int) -> np.ndarray:
    """Logical file of ``size`` bytes from per-shard backing images:
    global byte ``g`` lives on shard ``(g // stripe) % n`` at local
    offset ``(g // (stripe * n)) * stripe + g % stripe``."""
    n = len(shard_images)
    g = np.arange(size, dtype=np.int64)
    unit = g // stripe
    shard = unit % n
    local = (unit // n) * stripe + g % stripe
    out = np.zeros(size, dtype=np.uint8)
    for k, img in enumerate(shard_images):
        sel = shard == k
        loc = local[sel]
        ok = loc < img.size
        vals = np.zeros(loc.size, dtype=np.uint8)
        vals[ok] = img[loc[ok]]
        out[sel] = vals
    return out
