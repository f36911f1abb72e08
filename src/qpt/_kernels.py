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
#: between the draw and the steps that read it
BLOCK_DOUBLES = 1 << 17


def active_backend() -> str:
    """Name of the sampler in use; always ``"numpy"``.

    Kept only because the benchmark worker (``perfbench/worker.py``) records
    it in its machine block.
    """
    return "numpy"


def _chunk_streams(seed, steps: int, n_chunks: int) -> list:
    """One generator per chunk, positioned at the chunk's first draw.  Every
    chunk but the last consumes ``CHUNK * (steps + 1)`` doubles, and
    ``random()`` takes one 64-bit PCG64 output per double, so chunk m starts
    ``m * CHUNK * (steps + 1)`` outputs into the stream of ``PCG64(seed)``."""
    state = np.random.PCG64(seed).state
    gens = []
    for m in range(n_chunks):
        bitgen = np.random.PCG64()
        bitgen.state = state
        gens.append(np.random.Generator(bitgen.advance(m * CHUNK * (steps + 1))))
    return gens


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


def _walk(cols, cum_p0, n_walkers, seed, sample_idx):
    """Walk all chunks side by side through ``cols`` (steps, k, k), where
    ``cols[t, j, i]`` is the cumulative probability of jumping from label i
    to a label <= j.  Walkers sit in a (chunks, width) grid; the short last
    chunk is padded, and its padding walks on zeros and is dropped.  Each
    chunk draws its start uniforms, then its step uniforms a block of steps
    at a time into its own slab of one reused buffer.  The chunk streams are
    built only once the output and start arrays are allocated, so a walker
    count too large to hold fails at once with ``MemoryError``.

    Two routes, both exactly the selection rule of ``_sweep``:

    - k = 2: the labels are a boolean grid.  A step compares every uniform
      with the two scalar thresholds, giving ``from0 = u >= cols[t, 0, 0]``
      and ``from1 = u >= cols[t, 0, 1]`` (the next label of a walker on
      label 0 or 1), and keeps per walker the one for its own label,
      ``lab = (lab & from1) | (~lab & from0)``, in place.  No gather runs,
      and the labels become int64 only in the sampled rows.
    - k != 2: a walker on label i stays iff its uniform lies in that label's
      own slot ``[cols[t, i - 1, i], cols[t, i, i])`` (open below for i = 0
      and above for i = k - 1); since the thresholds are nondecreasing, that
      is exactly when ``_sweep`` would count i.  Each step tests the slot
      and sweeps the thresholds only for the walkers that leave it."""
    steps, k, _ = cols.shape
    n_chunks, width = -(-n_walkers // CHUNK), min(n_walkers, CHUNK)
    out = np.empty((sample_idx.shape[0], n_walkers), dtype=np.int64)
    u0 = np.zeros((n_chunks, width))
    sizes = [width] * (n_chunks - 1) + [n_walkers - (n_chunks - 1) * width]
    gens = _chunk_streams(seed, steps, n_chunks)
    # sample_idx strictly increases, so the sampled times fill the rows of
    # out in order; the mask is a list, since it is read one step at a time
    sampled = np.zeros(steps + 1, dtype=bool)
    sampled[sample_idx] = True
    sampled = sampled.tolist()
    for g, slab, c in zip(gens, u0, sizes):
        _fill(g, slab, c)
    lab = np.minimum((u0[..., None] >= cum_p0).sum(axis=-1), k - 1)
    row = 0
    if sampled[0]:
        out[row] = lab.reshape(-1)[:n_walkers]
        row += 1
    if k == 2:
        lab = lab.astype(bool)
        from0, from1 = np.empty_like(lab), np.empty_like(lab)
    else:
        hi = np.diagonal(cols, axis1=1, axis2=2).copy()
        hi[:, -1] = np.inf
        lo = np.full_like(hi, -np.inf)
        lo[:, 1:] = np.diagonal(cols, offset=1, axis1=1, axis2=2)
    block = max(1, min(steps, BLOCK_DOUBLES // lab.size))
    buf = np.zeros((n_chunks, block, width))
    for t0 in range(0, steps, block):
        b = min(block, steps - t0)
        for g, slab, c in zip(gens, buf, sizes):
            _fill(g, slab[:b], c)
        for s in range(b):
            t, u = t0 + s, buf[:, s]
            if k == 2:
                np.greater_equal(u, cols[t, 0, 0], out=from0)
                np.greater_equal(u, cols[t, 0, 1], out=from1)
                from1 &= lab
                np.logical_not(lab, out=lab)
                lab &= from0
                lab |= from1
            else:
                leave = u < lo[t].take(lab)
                leave |= u >= hi[t].take(lab)
                lab[leave] = _sweep(u[leave], cols[t], lab[leave])
            if sampled[t + 1]:
                out[row] = lab.reshape(-1)[:n_walkers]
                row += 1
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
    idx = raw.astype(np.int64)
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

    Precondition: every row ``cum[t, i]`` is a cumulative distribution whose
    last entry is exactly 1.0 and whose thresholds ``cum[t, i, :k - 1]`` are
    nondecreasing (``_transition_cumulatives`` sets the one, and its cumsum
    of non-negative entries, clipped at 1, gives the other).  The next label is
    then the first j with ``u < cum[t, i, j]``, a uniform ``u < 1`` never
    runs past the last label, and the stay test of ``_walk`` is exact.

    Two routes give these paths (see ``_walk``): with two labels, each step
    is two scalar compares over all walkers and an in-place bit select; with
    any other number, each step tests every walker's own slot and sweeps the
    thresholds only for the walkers that leave it.  ``sample_idx`` must be a
    1-D array of integer time indices in ``[0, steps]``, strictly
    increasing; anything else raises ``ValueError``.

    A seed fixes the paths.  The stream layout: walkers fall into chunks of
    ``CHUNK`` (the last one may be shorter), and chunk m consumes, from the
    one stream of ``PCG64(seed)``, one start uniform per walker and then one
    per (step, walker), step-major, starting at raw output
    ``m * CHUNK * (steps + 1)``.  Each chunk's generator is a copy of that
    state advanced to its offset.  ``CHUNK`` fixes only this layout: all
    chunks are walked side by side in one pass.
    """
    if n_walkers < 1:
        raise ValueError("n_walkers must be positive")
    sample_idx = sample_index_array(sample_idx, cum.shape[0])
    # thresholds as contiguous columns, so each step gathers 1-D arrays
    cols = np.ascontiguousarray(np.asarray(cum, dtype=np.float64).transpose(0, 2, 1))
    cum_p0 = np.cumsum(np.asarray(p0, dtype=np.float64))
    cum_p0[-1] = 1.0
    return _walk(cols, cum_p0, n_walkers, seed, sample_idx)
