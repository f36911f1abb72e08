"""Trajectory-sampling kernel: a vectorised numpy walker that advances a
chunk of walkers one step at a time through per-step cumulative transition
rows, with all randomness drawn from one seeded PCG64 stream.
"""
from __future__ import annotations

import numpy as np

#: trajectories are processed in fixed-size chunks; the chunk size is part of
#: the random-stream layout, so changing it changes sampled paths
CHUNK = 2048


def active_backend() -> str:
    """Name of the sampler in use; always ``"numpy"``.

    Kept only because the benchmark worker (``perfbench/worker.py``) records
    it in its machine block.
    """
    return "numpy"


def _walk_numpy(cols, start, uniforms, sample_idx):
    """Advance walkers from ``start`` through ``cols`` (steps, k, k), where
    ``cols[t, j, i]`` is the cumulative probability of jumping from label i
    to a label <= j.  The next label is the number of thresholds
    ``cols[t, j, lab]`` (j < k - 1) that the walker's uniform reaches."""
    steps, k, _ = cols.shape
    out = np.empty((sample_idx.shape[0], start.shape[0]), dtype=np.int64)
    where = {int(t): i for i, t in enumerate(sample_idx)}
    lab = start.copy()
    if 0 in where:
        out[where[0]] = lab
    for t in range(steps):
        u = uniforms[t]
        ct = cols[t]
        nxt = (u >= ct[0].take(lab)).astype(np.int64)
        for j in range(1, k - 1):
            nxt += u >= ct[j].take(lab)
        lab = nxt
        if (t + 1) in where:
            out[where[t + 1]] = lab
    return out


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
    last entry is exactly 1.0 (``_transition_cumulatives`` sets it so).  The
    next label is then the first j with ``u < cum[t, i, j]``, and a uniform
    ``u < 1`` never runs past the last label.

    A seed fixes the paths: walkers are drawn chunk by chunk (``CHUNK`` per
    chunk) from a single PCG64 stream, each chunk consuming one uniform per
    walker for the start, then one per (step, walker).
    """
    if n_walkers < 1:
        raise ValueError("n_walkers must be positive")
    steps, k, _ = cum.shape
    sample_idx = np.asarray(sample_idx, dtype=np.int64)
    if sample_idx.size and (sample_idx.min() < 0 or sample_idx.max() > steps):
        raise ValueError("sample indices outside [0, steps]")
    if not np.all(np.diff(sample_idx) > 0):
        raise ValueError("sample indices must be strictly increasing")
    # thresholds as contiguous columns, so each step gathers 1-D arrays
    cols = np.ascontiguousarray(np.asarray(cum, dtype=np.float64).transpose(0, 2, 1))
    cum_p0 = np.cumsum(np.asarray(p0, dtype=np.float64))
    cum_p0[-1] = 1.0

    rng = np.random.default_rng(seed)
    pieces = []
    done = 0
    while done < n_walkers:
        c = min(CHUNK, n_walkers - done)
        u0 = rng.random(c)
        start = np.minimum((u0[:, None] >= cum_p0[None, :]).sum(axis=1), k - 1)
        uniforms = rng.random((steps, c))
        pieces.append(_walk_numpy(cols, start.astype(np.int64), uniforms, sample_idx))
        done += c
    return np.concatenate(pieces, axis=1)
