"""Trajectory-sampling kernel: a vectorised numpy walker that advances all
walkers one step at a time through per-step cumulative transition rows, with
all randomness drawn from one seeded PCG64 stream.
"""
from __future__ import annotations

import os
import threading

import numpy as np

#: trajectories are processed in fixed-size chunks; the chunk size is part of
#: the random-stream layout, so changing it changes sampled paths
CHUNK = 2048

#: step uniforms are drawn a block of steps at a time into one reused buffer
#: of about this many doubles (1 MB), small enough to stay in a core's cache
#: between the draw and the steps that read it; the block's threshold slab
#: holds at most as many.  Each part of a split walk draws twice as many
#: (see ``_walk``)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: a two-label walk splits into one
    part per CPU (see ``_walk``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without the call
        return os.cpu_count() or 1


def _run(walks) -> None:
    """Run ``walks[0]`` in this thread and each other walk in a thread of
    its own, each called with one shared ``threading.Event``.  Once any walk
    raises, the event is set and every other walk stops at its next draw
    block.  Returns once every thread has ended; the error of this thread's
    walk, else of another walk, is raised here."""
    stop, errors = threading.Event(), []

    def guarded(walk):
        try:
            walk(stop)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for walk in walks[1:]:
            thread = threading.Thread(target=guarded, args=(walk,))
            thread.start()
            threads.append(thread)
        walks[0](stop)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _part(cum, c0, lab, gens, sizes, out, sample_idx, block_doubles):
    """Allocate the draw-block state of one part of the walk and return the
    part's walk: the chunks drawn by ``gens``, of ``sizes`` walkers each,
    on the walker grid ``lab`` (chunks, width), writing the columns ``out``.
    The walk reads ``cum`` and ``c0`` and writes only ``lab``, ``out`` and
    its own block state, so parts can walk at once; it returns early once
    the event it is called with is set."""
    steps, k, _ = cum.shape
    rows = steps + 1
    # a row takes lab.size uniforms and k * k slab entries
    block = max(1, min(rows, block_doubles // max(lab.size, k * k)))
    buf = np.zeros((lab.shape[0], block, lab.shape[1]))
    ct = np.empty((block, k, k))
    if k == 2:
        from0, from1 = np.empty_like(lab), np.empty_like(lab)
    else:
        hi = np.full((block, k), np.inf)
        lo = np.full((block, k), -np.inf)
    n_out = out.shape[1]

    def walk(stop):
        # sample_idx strictly increases, so the sampled times fill the rows
        # of out in order; due is the next one, -1 once every row is filled
        marks = iter(sample_idx)
        due, row = int(next(marks, -1)), 0
        for t0 in range(0, rows, block):
            if stop.is_set():  # another part failed
                return
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
                    np.bitwise_and(from1, lab, out=from1)
                    np.logical_not(lab, out=lab)
                    np.bitwise_and(lab, from0, out=lab)
                    np.bitwise_or(lab, from1, out=lab)
                else:
                    leave = u < lo[s].take(lab)
                    leave |= u >= hi[s].take(lab)
                    lab[leave] = _sweep(u[leave], ct[s], lab[leave])
                if t0 + s == due:
                    out[row] = lab.reshape(-1)[:n_out]
                    due, row = int(next(marks, -1)), row + 1

    return walk


def _walk(cum, c0, n_walkers, seed, sample_idx):
    """Walk the chunks through the chain's ``steps + 1`` rows: row 0 is the
    start thresholds ``c0 = cumsum(p0)`` from every label, and row t > 0 is
    ``cum[t - 1]`` (steps, k, k), read in place.  Walkers sit in a
    (chunks, width) grid, all on label 0; the short last chunk is padded,
    and its padding walks on zeros and is dropped.

    Parts: with two labels the chunks split into one contiguous range per
    usable CPU (``_usable_cpus``, at most one range per chunk), and each
    range is walked as a part of its own: this thread walks the first and a
    ``threading.Thread`` each other, joined before the call returns.  With
    any other number of labels the walk is one part.  Each chunk draws from
    its own generator and each walker's label depends only on its own
    uniforms, so no path depends on the part count or on where a part ends.

    Besides ``out`` and the walker grid, a part holds only the state of one
    draw block of ``b`` rows: the block's uniforms ``buf``, its rows as
    threshold columns ``ct`` (b, k, k), where ``ct[s, j, i]`` is threshold j
    of row t0 + s for a walker on label i, and for k != 2 the stay slots
    ``lo``/``hi`` (b, k) taken from ``ct``.  The block rule: ``b`` is set so
    that ``buf`` and ``ct`` each hold at most ``BLOCK_DOUBLES`` doubles in a
    one-part walk, and at most ``2 * BLOCK_DOUBLES`` in each part of a split
    walk, whose threads must draw long blocks (a short draw hands the
    interpreter lock back and forth); nothing grows with the chain.
    Every part's arrays are allocated here, in the calling thread: a thread
    that allocated its own would get a malloc arena of its own.
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
    n_chunks, width = -(-n_walkers // CHUNK), min(n_walkers, CHUNK)
    sizes = [width] * (n_chunks - 1) + [n_walkers - (n_chunks - 1) * width]
    out = np.empty((sample_idx.shape[0], n_walkers), dtype=np.int64)
    n_parts = min(n_chunks, _usable_cpus()) if k == 2 else 1
    cuts = [n_chunks * p // n_parts for p in range(n_parts + 1)]
    spans = list(zip(cuts, cuts[1:]))
    labs = [np.zeros((b - a, width), dtype=bool if k == 2 else np.int64) for a, b in spans]
    # the streams come after the walker arrays, so a walker count too large
    # to hold fails at once with MemoryError
    gens = _chunk_streams(seed, steps + 1, n_chunks)
    block_doubles = BLOCK_DOUBLES if n_parts == 1 else 2 * BLOCK_DOUBLES
    _run([
        _part(cum, c0, lab, gens[a:b], sizes[a:b], out[:, a * width:b * width],
              sample_idx, block_doubles)
        for lab, (a, b) in zip(labs, spans)
    ])
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
    in place: beyond its output it holds the walker grid and, per part, one
    draw block's uniforms and thresholds, not a copy of the chain.  ``cum`` must
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
    layout: with two labels the chunks are walked in one part per usable
    CPU, each part a contiguous range of chunks in a thread of its own, and
    with any other number in one part (see ``_walk``); no path depends on
    the part count.
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
