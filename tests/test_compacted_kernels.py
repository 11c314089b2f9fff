"""The compacted mode solvers, the sorted-insertion subset draw, the sign
rule and the einsum centroids against their loop and reduction forms:
every returned array must match byte for byte.

Both solver steps are minorize-maximize steps, whose loss can rise only by
round-off, so natural inputs do not reach the branch that stops a point whose
step raised its loss.  The solver properties therefore also run both
implementations with `consensus._LOSS_SLACK` negative, which makes every step
that does not lower the loss by that much count as a rise, and with a
heavy-tailed kernel swapped in (the profile 1 / (1 - e) for exp(e), on the
library's lifted exponent e), under which a step is no longer a
minorize-maximize step.  Each asserts that every
branch of its solver was taken.  Two further properties bound the loss each
solver returns by its initial loss plus what the guard lets through.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from normfit import consensus
from normfit.candidates import POSITION_SUBSET, _draw_index_sets, point_rng, sample_position_block
from normfit.consensus import (ConsensusParams, _ccp_exponent, normal_mode_batch,
                               position_mode_batch)
from normfit.geometry import canonical_sign, lift

from conftest import (canonical_sign_argmax, draw_index_sets_sorted, normal_mode_batch_loop,
                      position_mode_batch_loop, random_units)

SLACKS = st.sampled_from([consensus._LOSS_SLACK, -1e-3])
MAX_ITERS = st.sampled_from([1, 2, 5, 50])
# the oracles' branch counters (see conftest) that each solver property must reach
BRANCHES = ("gave_up", "converged", "max_iters", "underflow")
# unit vectors on which the sign rule meets a tie |x| = |y| or |y| = |z|
TIED_UNITS = np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 1.0], [-1.0, 1.0, -1.0],
                       [-1.0, 0.0, -1.0]])
TIED_UNITS /= np.linalg.norm(TIED_UNITS, axis=1, keepdims=True)


def cauchy_ccn_kernel(m, n, tau):
    """`_ccn_kernel` with the profile 1 / (1 - e) in place of exp(e), on the
    same lifted exponent e = c^2 - 1 / tau^2, c = m.(n / tau)."""
    c = np.matmul(m, (n / tau)[:, :, None])[:, :, 0]
    return 1.0 / (1.0 - (c**2 - (1.0 / tau) ** 2))


def cauchy_ccp_kernel(q, x, tau2):
    """`_ccp_kernel` with the profile 1 / (1 - e) in place of exp(e), on the
    same lifted exponent e, `_ccp_exponent` clamped at 0."""
    return 1.0 / (1.0 - np.minimum(_ccp_exponent(q, x, tau2), 0.0))


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes(), (g, w)


COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COMPONENTS, COMPONENTS, COMPONENTS), max_size=40))
@example([(1.0, -1.0, 0.0), (-0.5, 0.5, -0.5), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
          (0.0, -1.0, 1.0), (-0.0, 2.0, -2.0)])
def test_canonical_sign_matches_argmax(rows):
    v = np.array(rows, dtype=np.float64).reshape(-1, 3)
    assert_same_bytes([canonical_sign(v)], [canonical_sign_argmax(v)])


@settings(max_examples=200, deadline=None)
@given(k_pool=st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 450))),
       seed=st.integers(0, 2**64 - 1), rows=st.integers(0, 64), start=st.integers(0, 2**40))
def test_draw_index_sets_match_sorting_draw(k_pool, seed, rows, start):
    k, pool = k_pool
    keys = point_rng(seed, np.arange(rows))
    counters = start + np.arange(rows)
    assert_same_bytes([_draw_index_sets(keys, counters, pool, k)],
                      [draw_index_sets_sorted(keys, counters, pool, k)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pts=st.integers(0, 5), pool=st.integers(4, 12),
       n_candidates=st.integers(1, 20), exponent=st.integers(0, 300))
def test_position_centroids_match_mean(seed, n_pts, pool, n_candidates, exponent):
    # magnitudes from 1e-exponent to 1e+exponent, zeros of both signs and
    # repeated neighbours
    rng = np.random.default_rng(seed)
    nbrs = rng.normal(size=(n_pts, pool, 3)) * 10.0 ** rng.integers(-exponent, exponent + 1,
                                                                     (n_pts, pool, 3))
    nbrs[rng.random(nbrs.shape) < 0.1] = 0.0
    nbrs[rng.random(nbrs.shape) < 0.1] = -0.0
    if n_pts:
        nbrs[:, -1] = nbrs[:, 0]
    keys = point_rng(seed, np.arange(n_pts))
    p, slot = np.divmod(np.arange(n_pts * n_candidates), n_candidates)
    sets = draw_index_sets_sorted(keys[p], slot, pool, POSITION_SUBSET)
    want = nbrs[p[:, None], sets].mean(axis=1).reshape(n_pts, n_candidates, 3)
    assert_same_bytes([sample_position_block(nbrs, keys, n_candidates)], [want])


@st.composite
def normal_batches(draw, slacks=SLACKS):
    """(candidates (A, M, 3), inits (A, 3), params, loss slack, kernel):
    clusters of unit candidates with random signs, some zero rows, tied
    inits; at the smallest bandwidth every kernel weight of a point whose
    candidates all lie far from its init underflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, m = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    centres = np.vstack([random_units(rng, draw(st.integers(1, 3))), TIED_UNITS[:1]])
    cands = centres[rng.integers(0, len(centres), (a, m))]
    cands = cands + rng.normal(scale=draw(st.sampled_from([0.0, 0.02, 0.3, 3.0])), size=cands.shape)
    cands /= np.linalg.norm(cands, axis=2, keepdims=True)
    cands *= rng.choice([-1.0, 1.0], size=(a, m, 1))
    cands[rng.random((a, m)) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    init = np.where(rng.random((a, 1)) < 0.3, TIED_UNITS[rng.integers(0, 4, a)],
                    random_units(rng, a))
    params = ConsensusParams(tau_normal=draw(st.sampled_from([0.02, 0.1, 0.5, 1.0])),
                             max_iters=draw(MAX_ITERS),
                             tol_deg=draw(st.sampled_from([0.0, 0.01, 1.0])))
    kernel = draw(st.sampled_from([consensus._ccn_kernel, cauchy_ccn_kernel]))
    return cands, init, params, draw(slacks), kernel


def power_step_case(cands, init, tau):
    """A `normal_batches` case of one point at the default slack and kernel."""
    return (np.array([cands], dtype=np.float64), np.array([init], dtype=np.float64),
            ConsensusParams(tau_normal=tau), consensus._LOSS_SLACK, consensus._ccn_kernel)


# a unit candidate 32.9 degrees from e_z: at tau = 0.02 its kernel weight at
# e_z, exp(0.84^2 / tau^2 - 1 / tau^2) = exp(-736), is subnormal
SUBNORMAL = np.array([math.sqrt(1.0 - 0.84**2), 0.0, 0.84])
# edge cases of the power step: its weighted scatter S vanishes on a point
# whose candidates are all zero and on an init orthogonal to every candidate
# (S n = 0, so the point keeps its init); subnormal weights underflow S n
# unless they are rescaled first
POWER_STEP_EDGES = [
    power_step_case(np.zeros((5, 3)), [0.0, 0.0, 1.0], 0.5),
    power_step_case([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.6, 0.8, 0.0]], [0.0, 0.0, 1.0], 0.5),
    power_step_case([SUBNORMAL, SUBNORMAL * [1.0, 1.0, -1.0], -SUBNORMAL], [0.0, 0.0, 1.0], 0.02),
]


def edge_examples(test):
    for case in POWER_STEP_EDGES:
        test = example(case)(test)
    return test


def test_normal_mode_batch_matches_loop():
    hits = Counter()

    @settings(max_examples=300, deadline=None)
    @given(normal_batches())
    @edge_examples
    def check(case):
        m, init, params, slack, kernel = case
        with mock.patch.object(consensus, "_LOSS_SLACK", slack), \
                mock.patch.object(consensus, "_ccn_kernel", kernel):
            want = normal_mode_batch_loop(m, params, init, hits)
            got = normal_mode_batch(m, params, init)
        assert_same_bytes(got, want)

    check()
    assert all(hits[b] for b in BRANCHES), hits


def initial_loss(kernel, c, x, *rows):
    return -kernel(c, np.asarray(x, dtype=np.float64), *rows).sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(normal_batches(slacks=st.just(consensus._LOSS_SLACK)))
@edge_examples
def test_normal_loss_never_rises_past_the_guard(case):
    # each kept step raises the loss by at most _LOSS_SLACK; under the
    # heavy-tailed kernel a step can raise it, and the guard must stop it
    m, init, params, _, kernel = case
    with mock.patch.object(consensus, "_ccn_kernel", kernel):
        n, loss, iterations, _ = normal_mode_batch(m, params, init)
    start = initial_loss(kernel, m, init, params.tau_normal)
    assert (loss <= start + iterations * consensus._LOSS_SLACK).all(), (loss, start)
    # finite unit normals, but for a point that stopped at a zero candidate
    # (its nearest when every kernel weight underflows)
    assert np.isfinite(n).all() and np.isfinite(loss).all(), (n, loss)
    unit = np.abs(np.linalg.norm(n, axis=1) - 1.0) < 1e-12
    assert (unit | (n == 0.0).all(axis=1)).all(), n


def position_case(seed, a, m, spread, max_iters, tol_pos, slack, kernel):
    """(candidates (A, M, 3), inits (A, 3), bandwidths (A,), params, loss
    slack, kernel): clusters with repeated candidates; the smallest bandwidths
    underflow every kernel weight from the origin."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(rng.integers(1, 4), 3))
    q = centres[rng.integers(0, len(centres), (a, m))]
    q = q + rng.normal(scale=spread, size=q.shape)
    q[:, m // 2:] = q[:, :1]
    q[rng.random(a) < 0.3, :, rng.integers(3)] = -0.0      # a plane of negative zeros
    init = np.where(rng.random((a, 1)) < 0.7, 0.0, q[:, 0])
    tau = rng.choice([1e-4, 0.05, 0.5, 5.0], a)
    return q, init, tau, ConsensusParams(max_iters=max_iters, tol_pos=tol_pos), slack, kernel


def position_cases(slacks=SLACKS):
    return st.builds(
        position_case, seed=st.integers(0, 2**32 - 1), a=st.integers(1, 6),
        m=st.integers(1, 40), spread=st.sampled_from([0.0, 0.05, 0.5]), max_iters=MAX_ITERS,
        tol_pos=st.sampled_from([0.0, 1e-5, 1e-2]), slack=slacks,
        kernel=st.sampled_from([consensus._ccp_kernel, cauchy_ccp_kernel]))


def test_position_mode_batch_matches_loop():
    hits = Counter()

    @settings(max_examples=300, deadline=None)
    @given(position_cases())
    def check(case):
        q, init, tau, params, slack, kernel = case
        with mock.patch.object(consensus, "_LOSS_SLACK", slack), \
                mock.patch.object(consensus, "_ccp_kernel", kernel):
            want = position_mode_batch_loop(q, params, init, tau, hits)
            got = position_mode_batch(q, params, init, tau)
        assert_same_bytes(got, want)

    check()
    assert all(hits[b] for b in BRANCHES), hits


@settings(max_examples=200, deadline=None)
@given(position_cases(slacks=st.just(consensus._LOSS_SLACK)))
def test_position_loss_never_rises_past_the_guard(case):
    q, init, tau, params, _, kernel = case
    with mock.patch.object(consensus, "_ccp_kernel", kernel):
        _, loss, iterations, _ = position_mode_batch(q, params, init, tau)
    start = initial_loss(kernel, lift(q), init, tau**2)
    assert (loss <= start + iterations * consensus._LOSS_SLACK).all(), (loss, start)
