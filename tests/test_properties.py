"""Property tests: the batched ToF engine against the scalar solver.

Every batched ToF must equal the scalar :func:`solve` result to solver
precision, and be NaN exactly where the scalar solver raises.  Targets are
drawn in every layer, so straight chords, truncated stacks and full stacks
are all exercised.  Rows are independent: a row's ToF does not depend on
which other rows share its call or in what order, and every finite batched
ToF agrees with the brute-force Fermat oracle.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goatfocus import batch, goatsolve
from goatfocus.analysis import fermat_oracle
from goatfocus.batch import tof_batch, tof_maps
from goatfocus.errors import GoatFocusError
from goatfocus.goatsolve import solve, solve_rows
from goatfocus.medium import Point2

from cases import (
    MM,
    TOTAL_REFLECTION_FOCUS,
    TOTAL_REFLECTION_SOURCE,
    oscillating_medium,
    random_endpoints,
    random_medium,
    setting2_medium,
    setting3_medium,
    total_reflection_medium,
)

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


def targets_in_every_layer(rng, medium, per_layer=3):
    """Targets strictly inside each layer, the last one down to 30 mm below
    its top boundary."""
    lo, hi = medium.domain
    span = hi - lo
    tx, tz = [], []
    for k in range(medium.num_layers):
        x = rng.uniform(lo + 0.05 * span, hi - 0.05 * span, per_layer)
        top = medium.boundaries[k - 1]._eval(x) if k else np.zeros(per_layer)
        bottom = (medium.boundaries[k]._eval(x) if k < medium.num_layers - 1
                  else top + 30 * MM)
        tx.append(x)
        tz.append(top + rng.uniform(0.02, 0.98, per_layer) * (bottom - top))
    return np.concatenate(tx), np.concatenate(tz)


def assert_batch_equals_scalar(medium, src, tx, tz):
    got = tof_batch(medium, src, tx, tz)
    for i in range(tx.size):
        try:
            ref = solve(medium, src, Point2(tx[i], tz[i])).tof
        except GoatFocusError:
            assert np.isnan(got[i])
            continue
        assert abs(got[i] - ref) <= 1e-15 * ref


def test_failed_rows_enter_shooting_once(monkeypatch):
    # Oscillating targets 40-60 mm deep, seven of which the row Newton
    # rejects: 11, 33, 48 and 51 fail its checks, and the chords of 0, 14
    # and 45 cross the interface three times, so they have no straight-ray
    # start. Each block hands its rejected rows to one stage call on the
    # stack it was solved in: no second chord and no scalar solve.
    rng = np.random.default_rng(0)
    med = oscillating_medium()
    lo, hi = med.domain
    src = Point2(rng.uniform(lo, hi), 0.0)
    tx, tz = rng.uniform(lo, hi, 60), rng.uniform(40 * MM, 60 * MM, 60)
    ends = np.column_stack((np.full((tx.size, 2), (src.x, src.z)), tx, tz))
    failed = np.flatnonzero(solve_rows(med, ends.T)[3])
    assert failed.size == 7
    chords, stage = [], []
    real_chords, real_stage = goatsolve._chord_rows, goatsolve._shoot_rows

    def chord_rows(medium, e):
        chords.append(e.shape[1])
        return real_chords(medium, e)

    def shoot_rows(medium, e):
        stage.append(e.T.copy())
        return real_stage(medium, e)

    def scalar(*args, **kwargs):
        raise AssertionError("the batch made a scalar solve")

    monkeypatch.setattr(goatsolve, "_chord_rows", chord_rows)
    monkeypatch.setattr(goatsolve, "_shoot_rows", shoot_rows)
    for name in ("solve", "solve_newton", "solve_shooting"):
        monkeypatch.setattr(goatsolve, name, scalar)
    got = tof_batch(med, src, tx, tz)
    assert chords == [tx.size] and len(stage) == 1
    assert np.array_equal(stage[0], ends[failed])
    # Blocks of 16 rows: one call per block with a rejected row, each with
    # that block's rejected rows.
    monkeypatch.setattr(batch, "_BLOCK_ROWS", 16)
    stage.clear()
    assert _same(tof_batch(med, src, tx, tz), got)
    assert len(stage) == np.unique(failed // 16).size
    assert np.array_equal(np.concatenate(stage), ends[failed])
    monkeypatch.undo()
    assert np.sum(np.isfinite(got)) == tx.size - 3  # shooting recovers four
    assert_batch_equals_scalar(med, src, tx, tz)


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_random_media_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    med = random_medium(rng)
    lo, hi = med.domain
    src = Point2(rng.uniform(lo, hi), rng.uniform(0.0, 5 * MM))
    assert_batch_equals_scalar(med, src, *targets_in_every_layer(rng, med))


@SETTINGS
@given(st.sampled_from(["setting2", "setting3"]), st.integers(0, 2**32 - 1))
def test_ellipse_media_batch_equals_scalar(name, seed):
    med = {"setting2": setting2_medium, "setting3": setting3_medium}[name]()
    rng = np.random.default_rng(seed)
    lo, hi = med.domain
    src = Point2(rng.uniform(lo, hi), rng.uniform(0.0, 5 * MM))
    assert_batch_equals_scalar(med, src, *targets_in_every_layer(rng, med))


@SETTINGS
@given(st.floats(-20 * MM, 20 * MM), st.floats(-20 * MM, 20 * MM))
def test_unverified_rows_are_nan(dx, dz):
    # Around the total-reflection focus no transmitted path exists; the row
    # Newton cannot verify those rows and the batch must not return a number
    # for any of them that the scalar solver rejects.
    med = total_reflection_medium()
    src = TOTAL_REFLECTION_SOURCE
    x = np.array([TOTAL_REFLECTION_FOCUS.x, TOTAL_REFLECTION_FOCUS.x + dx])
    z = np.array([TOTAL_REFLECTION_FOCUS.z, TOTAL_REFLECTION_FOCUS.z + dz])
    ends = np.column_stack((np.full((2, 2), (src.x, src.z)), x, z))
    _, tof, _, rejected, _, _ = solve_rows(med, ends.T)
    assert rejected[0]
    assert np.array_equal(np.isnan(tof), rejected)
    got = tof_batch(med, src, x, z)
    assert np.isnan(got[0])
    assert_batch_equals_scalar(med, src, x, z)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _medium_and_source(name, seed):
    rng = np.random.default_rng(seed)
    med = {"random": lambda: random_medium(rng), "setting3": setting3_medium,
           "oscillating": oscillating_medium,
           "total_reflection": total_reflection_medium}[name]()
    lo, hi = med.domain
    if name == "total_reflection":
        # Left of the domain, where launches toward its left part are
        # totally reflected: the rows of many targets reach the stage.
        lo, hi = lo - 28 * MM, lo - 18 * MM
    return rng, med, Point2(rng.uniform(lo, hi), rng.uniform(0.0, 5 * MM))


def _stage_case(name, seed, per_layer):
    """:func:`_medium_and_source`'s case with targets in every layer; on
    oscillating, whose random rows rarely reach the shooting stage, the
    source and focus of a pair that ends in the hybrid stage instead."""
    rng, med, src = _medium_and_source(name, seed)
    tx, tz = targets_in_every_layer(rng, med, per_layer)
    if name == "oscillating":
        src = Point2(6.5657 * MM, 0.0)
        tx, tz = np.append(tx, 39.8763 * MM), np.append(tz, 46.131 * MM)
    return rng, med, src, tx, tz


@SETTINGS
@given(st.sampled_from(["random", "setting3", "oscillating"]),
       st.integers(0, 2**32 - 1))
def test_rows_are_independent(name, seed):
    # Every layer's targets go to the full stack, so the rows above the last
    # interface fail their checks and mix rejected rows with verified ones.
    # On the oscillating interface some rows of a call halve their step
    # while others take it whole, so each row must accept its own trial step.
    rng, med, src = _medium_and_source(name, seed)
    tx, tz = targets_in_every_layer(rng, med, per_layer=8)
    ends = np.column_stack((np.full((tx.size, 2), (src.x, src.z)), tx, tz))

    def tof_rejected(rows):
        _, tof, _, rejected, _, _ = solve_rows(med, ends[rows].T)
        return tof, rejected

    tof, rej = tof_rejected(slice(None))
    alone = [tof_rejected(slice(i, i + 1)) for i in range(tx.size)]
    assert _same(np.concatenate([t for t, _ in alone]), tof)
    assert np.array_equal(np.concatenate([r for _, r in alone]), rej)
    perm = rng.permutation(tx.size)
    tof_p, rej_p = tof_rejected(perm)
    assert _same(tof_p, tof[perm]) and np.array_equal(rej_p, rej[perm])
    cut = int(rng.integers(1, tx.size))
    (t1, r1), (t2, r2) = tof_rejected(slice(cut)), tof_rejected(slice(cut, None))
    assert _same(np.concatenate((t1, t2)), tof)
    assert np.array_equal(np.concatenate((r1, r2)), rej)


@SETTINGS
@given(st.sampled_from(["random", "setting3", "oscillating",
                        "total_reflection"]),
       st.integers(0, 2**32 - 1))
def test_batch_independent_of_block_size(name, seed):
    rng, med, src, tx, tz = _stage_case(name, seed, per_layer=9)
    want = tof_batch(med, src, tx, tz)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_BLOCK_ROWS", 7)
        assert _same(tof_batch(med, src, tx, tz), want)


@SETTINGS
@given(st.sampled_from(["random", "setting3", "oscillating",
                        "total_reflection"]),
       st.integers(0, 2**32 - 1))
def test_maps_equal_stacked_batches(name, seed):
    # Blocks of 7 rows straddle sources, so row-Newton calls and stage calls
    # mix them; more workers than cores and a short switch interval
    # interleave the blocks as often as possible.
    rng, med, src, tx, tz = _stage_case(name, seed, per_layer=3)
    lo, hi = med.domain
    sources = [src] + [Point2(rng.uniform(lo, hi), rng.uniform(0.0, 5 * MM))
                       for _ in range(3)]
    want = np.stack([tof_batch(med, p, tx, tz) for p in sources])
    switch = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_BLOCK_ROWS", 7)
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 2, 5):
                got = tof_maps(med, sources, tx, tz, workers=workers)
                assert _same(got, want)
        finally:
            sys.setswitchinterval(switch)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_agrees_with_fermat_oracle(seed):
    # Each target sits below the last interface of a 2-4 layer medium, so
    # every crossing is in play; the oracle is independent of refraction.
    rng = np.random.default_rng(seed)
    med = random_medium(rng)
    src, focus = random_endpoints(rng, med)
    second = random_endpoints(rng, med)[1]
    tx, tz = np.array([focus.x, second.x]), np.array([focus.z, second.z])
    got = tof_batch(med, src, tx, tz)
    assert np.all(np.isfinite(got))
    for x, z, tof in zip(tx, tz, got):
        ref = fermat_oracle(med, src, Point2(x, z), grid=1024)
        assert abs(tof - ref.tof) <= max(ref.bound, 1e-9 * tof)
