"""Deterministic derivation of independent random streams, and the chunk driver.

Every stochastic routine in the package takes an explicit integer seed and
derives sub-streams with :func:`derive_seed`, so results are reproducible
bit-for-bit and independent of execution order or worker count.  Batch
simulations split their paths with :func:`run_chunks`, which owns the chunk
layout and the per-chunk stream keys; a chunk's one per-path, per-node
array, its regime grid, comes from :func:`mapped_zeros`.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import mmap

import numpy as np

from .errors import ValidationError

CHUNK_SIZE = 4096
MAP_MIN_BYTES = 128 << 10  # glibc's default mmap threshold; larger arrays get their own map


def derive_seed(master_seed: int, *key) -> int:
    """Derive a 63-bit child seed from a master seed and a key path.

    Key parts may be ints or strings; the mapping is stable across runs
    and platforms (SHA-256 based, no Python hash randomization).
    """
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for part in key:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Independent ``numpy`` Generator keyed by ``(master_seed, *key)``."""
    return np.random.default_rng(derive_seed(master_seed, *key))


def mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zeroed C-order array; from ``MAP_MIN_BYTES`` up, in its own memory map.

    A chunk's regime grid, the one per-path, per-node array it holds (its
    Brownian increments are drawn a step at a time), is 0.4 MiB at 4096
    paths and 100 steps, and grows with the grid.  Left to malloc, such a
    block is mapped or carved from the heap depending on glibc's adaptive
    mmap threshold and on where earlier small objects lie, and the peak
    memory of the same ``verify`` run moved by 2.7 MiB with nothing but the
    directory of its source tree.  An anonymous map of its own is returned
    to the system when the array is freed, so the peak is the sum of what
    is live, for a full chunk and for the last, partial one alike.  The map
    is private and, where the system allows it, populated by the one call
    instead of by a fault per page.  Smaller arrays, and every array where
    ``mmap`` takes no flags, come from ``np.zeros``.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < MAP_MIN_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype)
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), dtype).reshape(shape)


def run_chunks(n_paths: int, seed: int, key: str, draw, workers: int = 1) -> tuple:
    """Run ``draw(rng, n)`` on consecutive chunks of at most ``CHUNK_SIZE`` paths.

    ``draw`` returns a tuple of arrays whose first axis runs over the
    chunk's n paths; the result is the same tuple over all ``n_paths``
    paths, in path order.  Chunk c draws from ``derive_rng(seed, key, c)``,
    so the result does not depend on ``workers``; with ``workers > 1`` the
    chunks run on a thread pool, each in a copy of the caller's context, so
    numpy's floating-point error state holds on every lane.  Raises
    :class:`ValidationError` when ``n_paths < 1``.
    """
    if n_paths < 1:
        raise ValidationError("need at least one path")
    sizes = [min(CHUNK_SIZE, n_paths - lo) for lo in range(0, n_paths, CHUNK_SIZE)]
    run = lambda c: draw(derive_rng(seed, key, c), sizes[c])
    if workers > 1 and len(sizes) > 1:
        # imported here: a single lane needs no thread pool, nor its logging import
        from concurrent.futures import ThreadPoolExecutor

        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            lanes = pool.map(lambda c: context.copy().run(run, c), range(len(sizes)))
            return _in_path_order(lanes, n_paths)
    return _in_path_order(map(run, range(len(sizes))), n_paths)


def _in_path_order(parts, n_paths: int) -> tuple:
    """Copy each chunk's arrays into whole-run arrays as the chunks arrive."""
    out, lo = None, 0
    for part in parts:
        if out is None:
            out = tuple(np.empty((n_paths,) + a.shape[1:], a.dtype) for a in part)
        for dst, a in zip(out, part):
            dst[lo : lo + len(a)] = a
        lo += len(part[0])
    return out
