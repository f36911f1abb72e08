"""Trajectory-sampling kernel: a vectorised numpy walker that advances all
walkers one step at a time through per-step cumulative transition rows, with
all randomness drawn from one seeded PCG64 stream.
"""
from __future__ import annotations

import numpy as np

#: trajectories are processed in fixed-size chunks; the chunk size is part of
#: the random-stream layout, so changing it changes sampled paths
CHUNK = 2048

#: step uniforms are drawn a block of steps at a time into one reused buffer
#: of about this many doubles (1 MB), small enough to stay in a core's cache
#: between the draw and the steps that read it; the block's threshold slab
#: holds at most as many
BLOCK_DOUBLES = 1 << 17


def active_backend() -> str:
    """Name of the sampler in use; always ``"numpy"``.

    Kept only because the benchmark worker (``perfbench/worker.py``) records
    it in its machine block.
    """
    return "numpy"


def _chunk_streams(seed, rows: int, n_chunks: int) -> list:
    """One generator per chunk, ``rows * CHUNK`` outputs apart in the stream
    of ``PCG64(seed)`` (see ``sample_paths``)."""
    return [
        np.random.Generator(np.random.PCG64(seed).advance(m * CHUNK * rows))
        for m in range(n_chunks)
    ]


def _fill(gen, slab, c):
    """Draw ``slab[..., :c]`` from ``gen`` in row-major order."""
    if c == slab.shape[-1]:
        gen.random(out=slab)
    else:  # the short last chunk: its rows are not contiguous in the slab
        for row in slab.reshape(-1, slab.shape[-1]):
            gen.random(out=row[:c])


def _sweep(u, ct, lab):
    """The next label of walkers on ``lab`` with uniforms ``u``: the number
    of thresholds ``ct[j, lab]`` (j < k - 1) that ``u`` reaches."""
    nxt = (u >= ct[0].take(lab)).astype(np.int64)
    for j in range(1, ct.shape[0] - 1):
        nxt += u >= ct[j].take(lab)
    return nxt


def _walk(cum, c0, n_walkers, seed, sample_idx):
    """Walk all chunks side by side through the chain's ``steps + 1`` rows:
    row 0 is the start thresholds ``c0 = cumsum(p0)`` from every label, and
    row t > 0 is ``cum[t - 1]`` (steps, k, k), read in place.  Walkers sit in
    a (chunks, width) grid, all on label 0; the short last chunk is padded,
    and its padding walks on zeros and is dropped.

    Besides ``out`` and the walker grid, the walk holds only the state of one
    draw block of ``b`` rows: the block's uniforms ``buf``, its rows as
    threshold columns ``ct`` (b, k, k), where ``ct[s, j, i]`` is threshold j
    of row t0 + s for a walker on label i, and for k != 2 the stay slots
    ``lo``/``hi`` (b, k) taken from ``ct``.  ``b`` is set so that ``buf``
    and ``ct`` each hold at most ``BLOCK_DOUBLES`` doubles, whatever the
    walker count and k; nothing grows with the chain.
    Two routes, both exactly the selection rule of ``_sweep``:

    - k = 2: the labels are a boolean grid.  A step compares every uniform
      with the two scalar thresholds, giving ``from0 = u >= ct[s, 0, 0]``
      and ``from1 = u >= ct[s, 0, 1]`` (the next label of a walker on
      label 0 or 1), and keeps per walker the one for its own label,
      ``lab = (lab & from1) | (~lab & from0)``, in place.  No gather runs,
      and the labels become int64 only in the sampled rows.
    - k != 2: a walker on label i stays iff its uniform lies in that label's
      own slot ``[ct[s, i - 1, i], ct[s, i, i])`` (open below for i = 0
      and above for i = k - 1); since the thresholds are nondecreasing, that
      is exactly when ``_sweep`` would count i.  Each step tests the slot
      and sweeps the thresholds only for the walkers that leave it."""
    steps, k, _ = cum.shape
    rows = steps + 1
    n_chunks, width = -(-n_walkers // CHUNK), min(n_walkers, CHUNK)
    sizes = [width] * (n_chunks - 1) + [n_walkers - (n_chunks - 1) * width]
    out = np.empty((sample_idx.shape[0], n_walkers), dtype=np.int64)
    lab = np.zeros((n_chunks, width), dtype=bool if k == 2 else np.int64)
    # the streams come after the walker arrays, so a walker count too large
    # to hold fails at once with MemoryError
    gens = _chunk_streams(seed, rows, n_chunks)
    # a row takes lab.size uniforms and k * k slab entries
    block = max(1, min(rows, BLOCK_DOUBLES // max(lab.size, k * k)))
    buf = np.zeros((n_chunks, block, width))
    ct = np.empty((block, k, k))
    if k == 2:
        from0, from1 = np.empty_like(lab), np.empty_like(lab)
    else:
        hi = np.full((block, k), np.inf)
        lo = np.full((block, k), -np.inf)
    # sample_idx strictly increases, so the sampled times fill the rows of
    # out in order; due is the next one, -1 once every row is filled
    marks = iter(sample_idx)
    due, row = int(next(marks, -1)), 0
    for t0 in range(0, rows, block):
        b = min(block, rows - t0)
        for g, slab, c in zip(gens, buf, sizes):
            _fill(g, slab[:b], c)
        first = int(t0 == 0)
        if first:
            ct[0] = c0[:, None]
        ct[first:b] = cum[t0 + first - 1:t0 + b - 1].transpose(0, 2, 1)
        if k != 2:
            hi[:b, :-1] = ct[:b, :-1].diagonal(axis1=1, axis2=2)
            lo[:b, 1:] = ct[:b].diagonal(offset=1, axis1=1, axis2=2)
        for s in range(b):
            u = buf[:, s]
            if k == 2:
                np.greater_equal(u, ct[s, 0, 0], out=from0)
                np.greater_equal(u, ct[s, 0, 1], out=from1)
                from1 &= lab
                np.logical_not(lab, out=lab)
                lab &= from0
                lab |= from1
            else:
                leave = u < lo[s].take(lab)
                leave |= u >= hi[s].take(lab)
                lab[leave] = _sweep(u[leave], ct[s], lab[leave])
            if t0 + s == due:
                out[row] = lab.reshape(-1)[:n_walkers]
                due, row = int(next(marks, -1)), row + 1
    return out


def sample_index_array(sample_idx, steps: int) -> np.ndarray:
    """``sample_idx`` as an int64 array of time indices.  Raises
    ``ValueError`` unless it is 1-D, holds only integers (integer-valued
    floats included; a fractional index is never truncated), lies in
    ``[0, steps]`` and strictly increases.  An empty input is valid."""
    raw = np.asarray(sample_idx)
    if raw.ndim != 1:
        raise ValueError(f"sample indices must be 1-D, got shape {raw.shape}")
    if raw.size and raw.dtype.kind not in "iu" and not (
        raw.dtype.kind == "f" and np.isfinite(raw).all() and (raw == np.trunc(raw)).all()
    ):
        raise ValueError("sample indices must be integers")
    if raw.size and (raw.min() < 0 or raw.max() > steps):
        raise ValueError("sample indices outside [0, steps]")
    idx = raw.astype(np.int64, copy=False)
    if (np.diff(idx) <= 0).any():
        raise ValueError("sample indices must be strictly increasing")
    return idx


def sample_paths(
    cum: np.ndarray,
    p0: np.ndarray,
    n_walkers: int,
    seed: int,
    sample_idx: np.ndarray,
) -> np.ndarray:
    """Run ``n_walkers`` Markov chains through per-step cumulative transition
    matrices ``cum`` (steps, k, k), starting from the distribution ``p0``.
    Returns labels with shape (len(sample_idx), n_walkers).

    The walk rule: the start distribution is the chain's step 0, the row
    ``cumsum(p0)`` taken from label 0, and each of the ``steps + 1`` rows
    moves a walker on label i with its uniform ``u`` to the first label
    j < k - 1 with ``u < row[i, j]``, else to the last label.  No route
    reads a row's last threshold.  Precondition: the thresholds
    ``cum[t, i, :k - 1]`` and ``cumsum(p0)[:k - 1]`` are nondecreasing
    (each is a cumsum of non-negative entries), so the stay test of
    ``_walk`` is exact.

    Two routes give these paths (see ``_walk``): with two labels, each step
    is two scalar compares over all walkers and an in-place bit select; with
    any other number, each step tests every walker's own slot and sweeps the
    thresholds only for the walkers that leave it.  The walk reads ``cum``
    in place: beyond its output it holds the walker grid and one draw
    block's uniforms and thresholds, not a copy of the chain.  ``cum`` must
    have shape (steps, k, k) with k >= 1 and ``p0`` shape (k,);
    ``sample_idx`` must be a 1-D array of integer time indices in
    ``[0, steps]``, strictly increasing; anything else raises
    ``ValueError``.

    A seed fixes the paths.  The stream layout: walkers fall into chunks of
    ``CHUNK`` (the last one may be shorter), and chunk m consumes, from the
    one stream of ``PCG64(seed)``, one uniform per (row, walker), row-major,
    starting at raw output ``m * CHUNK * (steps + 1)``; ``random()`` takes
    one 64-bit output per double, so each chunk's generator is
    ``PCG64(seed)`` advanced to its offset.  ``CHUNK`` fixes only this
    layout: all chunks are walked side by side in one pass.
    """
    if n_walkers < 1:
        raise ValueError("n_walkers must be positive")
    cum = np.asarray(cum, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    if cum.ndim != 3 or cum.shape[1] != cum.shape[2] or cum.shape[1] < 1:
        raise ValueError(f"cum must have shape (steps, k, k) with k >= 1, got {cum.shape}")
    if p0.shape != cum.shape[1:2]:
        raise ValueError(f"p0 must have shape ({cum.shape[1]},), got {p0.shape}")
    sample_idx = sample_index_array(sample_idx, cum.shape[0])
    return _walk(cum, np.cumsum(p0), n_walkers, seed, sample_idx)
