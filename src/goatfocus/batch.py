"""Vectorized time-of-flight evaluation for large (source, target) batches.

Every (source, target) pair is one row.  Targets in the first layer, and
every target of a medium whose layers share one speed, get the exact
straight chord.  The other rows are grouped by target layer and cut into
blocks of ``_BLOCK_ROWS``, which may mix sources; each block is one
:func:`goatsolve.solve_rows` call on the stack down to the targets' layer,
the one chain of the solver's two stages: row Newton, then shooting for the
rows Newton rejects, all re-verified.  The scalar solver runs one row of
the same call, so batch and scalar agree bit for bit; a row no stage
verifies is NaN.
Blocks are the unit of parallel work: a row's ToF does not depend on the
other rows of its block, so the result does not depend on the block size or
on the number of workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .goatsolve import SolverOptions, solve_rows
from .medium import Medium, Point2

# Rows per row-Newton call; bounds the size of its working arrays.
_BLOCK_ROWS = 16384


def _solve_pairs(medium: Medium, sources, tx, tz, opts: SolverOptions,
                 workers: int) -> np.ndarray:
    """ToFs from every source to every target, (len(sources), targets).

    A layer's rows are numbered source-major, row r pairing source
    r // n with the layer's target r % n; blocks are ranges of that number,
    so no array of every row is built.  Blocks write disjoint entries and
    run on ``min(workers, blocks)`` threads.
    """
    flat_x = np.asarray(tx, dtype=float).ravel()
    flat_z = np.asarray(tz, dtype=float).ravel()
    out = np.empty((len(sources), flat_x.size))
    for row, src in zip(out, sources):
        np.hypot(flat_x - src.x, flat_z - src.z, out=row)
        row /= medium.speeds[0]
    if len(set(medium.speeds)) == 1:
        return out
    sx = np.array([p.x for p in sources])
    sz = np.array([p.z for p in sources])
    layers = medium.layers_of(flat_x, flat_z)
    blocks = []  # (layers down to the targets', the targets, first row, end)
    for k in range(2, medium.num_layers + 1):
        idx = np.flatnonzero(layers == k)
        rows = len(sources) * idx.size
        stack = medium.truncated(k)
        blocks += [(stack, idx, start, min(start + _BLOCK_ROWS, rows))
                   for start in range(0, rows, _BLOCK_ROWS)]

    def run(block):
        stack, idx, start, stop = block
        s, t = np.divmod(np.arange(start, stop), idx.size)
        t = idx[t]
        ends = np.empty((4, s.size))  # x0, z0, xN, zN
        ends[0], ends[1] = sx[s], sz[s]
        ends[2], ends[3] = flat_x[t], flat_z[t]
        out[s, t] = solve_rows(stack, ends, opts)[1]

    if len(blocks) > 1:
        # Even one worker runs in a pool thread: glibc hands the freed top of
        # the main thread's heap back to the system after every block, but
        # keeps a pool thread's, and proxon's table took 0.20 s in a pool
        # thread against 0.25 s in the main thread.
        with ThreadPoolExecutor(min(workers, len(blocks))) as pool:
            list(pool.map(run, blocks))
    else:  # a pool costs more than it saves on one block
        for block in blocks:
            run(block)
    return out


def tof_batch(medium: Medium, src: Point2, tx, tz,
              opts: SolverOptions = SolverOptions()):
    """Times of flight from ``src`` to every target (tx[i], tz[i]).

    Targets the solver cannot reach yield NaN (callers treat them as
    failures and exclude them, never substitute).
    """
    return _solve_pairs(medium, [src], tx, tz, opts, 1).reshape(np.shape(tx))


def tof_maps(medium: Medium, sources, tx, tz,
             opts: SolverOptions = SolverOptions(),
             workers: int = 1) -> np.ndarray:
    """Stacked ToF maps, one per source: shape (len(sources),) + tx.shape.

    All (source, target) rows are solved together, in blocks that may mix
    sources, on a pool of ``workers`` threads; so one source with many
    targets and many sources with few targets both spread over the pool.
    The output is bit-identical to per-source :func:`tof_batch` calls
    regardless of worker count.
    """
    sources = list(sources)
    out = _solve_pairs(medium, sources, tx, tz, opts, workers)
    return out.reshape((len(sources),) + np.shape(tx))
