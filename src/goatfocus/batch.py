"""Vectorized time-of-flight evaluation for large (source, target) batches.

Targets in the first layer, and every target of a medium whose layers share
one speed, get the exact straight chord.  The others are grouped by layer
and solved in blocks of rows by :func:`goatsolve.tof_rows`, which re-verifies
every row as the scalar solver does; only rows that fail go to the scalar
:func:`goatsolve.solve`, so batch and scalar results agree bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress

import numpy as np

from .errors import GoatFocusError
from .goatsolve import SolverOptions, solve, tof_rows
from .medium import Medium, Point2

# Rows per row-Newton call; bounds the size of its working arrays.
_BLOCK_ROWS = 16384

def tof_batch(medium: Medium, src: Point2, tx, tz,
              opts: SolverOptions = SolverOptions()):
    """Times of flight from ``src`` to every target (tx[i], tz[i]).

    Targets the solver cannot reach yield NaN (callers treat them as
    failures and exclude them, never substitute).
    """
    shape = np.shape(tx)
    flat_x = np.asarray(tx, dtype=float).ravel()
    flat_z = np.asarray(tz, dtype=float).ravel()
    out = np.hypot(flat_x - src.x, flat_z - src.z) / medium.speeds[0]
    if len(set(medium.speeds)) == 1:
        return out.reshape(shape)
    layers = medium.layers_of(flat_x, flat_z)
    for k in range(2, medium.num_layers + 1):
        idx = np.flatnonzero(layers == k)
        for start in range(0, idx.size, _BLOCK_ROWS):
            rows = idx[start:start + _BLOCK_ROWS]
            # tof_rows takes (rows, 4) and works on its (4, rows)
            # transpose, so passing the transpose of a C-contiguous
            # (4, rows) array spares it a copy.
            ends = np.empty((4, rows.size))  # x0, z0, xN, zN
            ends[0], ends[1] = src.x, src.z
            ends[2], ends[3] = flat_x[rows], flat_z[rows]
            out[rows], ok = tof_rows(medium.truncated(k), ends.T, opts)
            for i in rows[~ok]:
                with suppress(GoatFocusError):  # a failed row keeps its NaN
                    out[i] = solve(medium, src,
                                   Point2(flat_x[i], flat_z[i]), opts).tof
    return out.reshape(shape)


def tof_maps(medium: Medium, sources, tx, tz,
             opts: SolverOptions = SolverOptions(),
             workers: int = 1) -> np.ndarray:
    """Stacked ToF maps, one per source: shape (len(sources),) + tx.shape.

    Sources are independent; they are evaluated on a pool of ``workers``
    threads writing to disjoint slots (bit-identical to the serial order
    regardless of worker count).
    """
    sources = list(sources)
    out = np.empty((len(sources),) + np.asarray(tx).shape, dtype=float)

    def run(i):
        out[i] = tof_batch(medium, sources[i], tx, tz, opts)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(len(sources))))
    return out
