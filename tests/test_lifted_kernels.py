"""The lifted Gaussian kernels against their direct formulas, and the bytes
of their stacked matmuls.

Each kernel writes its exponent as an inner product of two lifted vectors
(`geometry.lift`) and computes a block's exponents with one stacked matmul:

    plane score      sum_k exp(-((p - a).n / sigma)^2)    [p, 1].[n, -a.n] / sigma
    position score   sum_k exp(-|p - q|^2 / sigma^2)      [q, 1, |q|^2].[2p, -|p|^2, -1] / sigma^2
    normal solver    exp(-(1 - (m.n)^2) / tau^2)          (m.(n / tau))^2 - 1 / tau^2
    position solver  exp(-|q - x|^2 / tau^2)              [q, 1, |q|^2].[2x, -|x|^2, -1] / tau^2

Tolerance.  Let u = 2**-53 and let T = sum_i |l_i r_i| be the magnitude of
the lifted terms of one inner product e = sum_i l_i r_i (at most 5 terms).
Each lifted entry carries a relative error of at most 4u (|p|^2 is a 3-term
sum of products, about 3u, then one division), so each product l_i r_i is
off by at most 8u of itself; summing at most 5 of them adds at most 5u of T.
The direct formula's exponent is off by at most 7u |e| <= 7u T (a
difference, a 3-term sum of squares or a dot product, then a division).  So
the two exponents differ by at most delta = 21u T (rounded up), and
|exp(a) - exp(b)| <= max(exp(a), exp(b)) |a - b| <= w e^delta delta for the
direct value w; each exp adds one rounding, 2u w for the pair.  The plane
score squares its inner product d: with |d| <= T the squares differ by at
most 2 T delta + delta^2 + u d^2 <= 44u T^2.  The normal kernel's c = m.(n/tau)
has T <= 1/tau for unit m and n, so c^2 - 1/tau^2 is off by at most
2 (21u / tau^2) + 3u / tau^2 and the direct exponent by 11u / tau^2: delta
= 56u / tau^2.  A score adds k terms, each off by its bound, and its
summation errs by at most k u of the sum.

A coincident candidate's exponent cancels exactly only when the arithmetic
is exact, so the coincident cases use dyadic coordinates and bandwidths;
there the kernel must be exactly 1.  The clamp at 0 keeps every other
kernel value at or below 1.  A far candidate's term must be exactly 0 in the
solvers, which clamp only at 0, so their underflow branch stays reachable,
and exactly exp(-700) in the scores, which clamp their exponent at -700.
"""

import numpy as np
import pytest

from normfit.candidates import score_plane_block, score_position_block
from normfit.consensus import _ccn_kernel, _ccp_kernel, _lift_products, _newton_step
from normfit.geometry import lift

from conftest import random_units

U = 2.0**-53
SEEDS = range(6)


def within(got, want, delta):
    """|got - want| within the bound of the module docstring, termwise."""
    bound = want * (delta * np.exp(delta) + 2 * U)
    return np.abs(got - want) <= bound


def plane_block(rng, p, k, m, scale=1.0):
    nbrs = rng.normal(size=(p, k, 3)) * scale
    normals = random_units(rng, p * m).reshape(p, m, 3)
    anchors = nbrs[:, rng.integers(0, k, m)]
    sigma = rng.uniform(0.05, 2.0, p) * scale
    return nbrs, normals, anchors, sigma


def position_block(rng, p, k, m, scale=1.0):
    nbrs = rng.normal(size=(p, k, 3)) * scale
    positions = nbrs[:, rng.integers(0, k, (m, 4))].mean(axis=2)
    sigma = rng.uniform(0.05, 2.0, p) * scale
    return nbrs, positions, sigma


def position_magnitude(q, x, s2):
    """T of lift(q) . lift(x, s2) per (q, x) pair: q (..., K, 3), x (..., 3)."""
    return (2 * np.abs(q * x[..., None, :]).sum(axis=-1)
            + (q * q).sum(axis=-1) + (x * x).sum(axis=-1)[..., None]) / s2[..., None]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_plane_score_matches_direct_formula(seed, scale):
    rng = np.random.default_rng(seed)
    nbrs, normals, anchors, sigma = plane_block(rng, 4, 30, 20, scale)
    got = score_plane_block(nbrs, normals, anchors, sigma)
    p, n, a, s = nbrs[:, :, None], normals[:, None], anchors[:, None], sigma[:, None, None]
    d = ((p - a) * n).sum(axis=-1) / s                            # (P, k, M)
    terms = np.exp(-np.minimum(d**2, 700.0))
    t = (np.abs(p * n).sum(axis=-1) + np.abs((a * n).sum(axis=-1))) / s
    bound = (terms * (44 * U * t**2 * np.exp(44 * U * t**2) + 2 * U)).sum(axis=1)
    want = terms.sum(axis=1)
    assert (np.abs(got - want) <= bound + 30 * U * want).all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_position_score_matches_direct_formula(seed, scale):
    rng = np.random.default_rng(seed)
    nbrs, positions, sigma = position_block(rng, 4, 30, 20, scale)
    got = score_position_block(nbrs, positions, sigma)
    s2 = sigma**2
    d2 = ((positions[:, :, None] - nbrs[:, None]) ** 2).sum(axis=-1) / s2[:, None, None]
    terms = np.exp(-np.minimum(d2, 700.0))                         # (P, M, k)
    t = position_magnitude(nbrs[:, None], positions, s2[:, None])
    bound = (terms * (21 * U * t * np.exp(21 * U * t) + 2 * U)).sum(axis=2)
    want = terms.sum(axis=2)
    assert (np.abs(got - want) <= bound + 30 * U * want).all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tau", [0.02, 0.1, 0.5, 1.0])
def test_normal_kernel_matches_direct_formula(seed, tau):
    rng = np.random.default_rng(seed)
    m = random_units(rng, 6 * 40).reshape(6, 40, 3)
    n = random_units(rng, 6)
    m[:, :5] = n[:, None] + rng.normal(scale=0.05, size=(6, 5, 3))   # some near the mode
    m[:, :5] /= np.linalg.norm(m[:, :5], axis=2, keepdims=True)
    got = _ccn_kernel(m, n, tau)
    want = np.exp(-(1.0 - ((m * n[:, None]).sum(axis=2)) ** 2) / tau**2)
    assert within(got, want, 56 * U / tau**2).all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_position_solver_kernel_matches_direct_formula(seed, scale):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(6, 40, 3)) * scale
    x = q[:, :10].mean(axis=1)
    tau2 = (rng.uniform(0.1, 2.0, 6) * scale) ** 2
    got = _ccp_kernel(_lift_products(q), x, tau2)
    want = np.exp(-((q - x[:, None]) ** 2).sum(axis=2) / tau2[:, None])
    assert within(got, want, 21 * U * position_magnitude(q, x, tau2)).all()
    assert (got <= 1.0).all()


# dyadic coordinates and bandwidths: every lifted product and sum is exact
DYADIC = np.array([0.5, -1.25, 2.0])


def test_coincident_terms_are_exactly_one():
    p = np.broadcast_to(DYADIC, (1, 1, 3))
    unit = np.array([[[0.0, 0.0, 1.0]]])
    # a neighbour on the plane, a candidate at the neighbour, two of them
    assert score_plane_block(p, unit, p, np.array([0.25]))[0, 0] == 1.0
    assert score_position_block(p, p, np.array([0.5]))[0, 0] == 1.0
    assert (_ccp_kernel(_lift_products(np.repeat(p, 2, axis=1)), p[0],
                        np.array([0.25])) == 1.0).all()
    # a candidate normal equal to the normal, or opposite, at any bandwidth
    for tau in (0.02, 0.1, 0.3, 1.0):
        assert (_ccn_kernel(np.concatenate([unit, -unit], axis=1), unit[0], tau) == 1.0).all()


def test_far_terms_are_exactly_zero_in_the_solvers_and_clamped_in_the_scores():
    p = np.broadcast_to(DYADIC, (1, 1, 3))
    far = p + np.array([1e3, -2e3, 5e2])
    unit = np.array([[[0.0, 0.0, 1.0]]])
    clamped = np.exp(-700.0)
    # exponents of -4e6 and below: exp underflows to 0 unless clamped at -700
    assert score_plane_block(far, unit, p, np.array([0.25]))[0, 0] == clamped
    assert score_position_block(far, p, np.array([0.25]))[0, 0] == clamped
    assert (_ccp_kernel(_lift_products(np.concatenate([far, 2 * far], axis=1)), p[0],
                        np.array([0.25])) == 0.0).all()
    # a perpendicular candidate normal: exponent -1 / 0.02^2 = -2500
    side = np.array([[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]])
    assert (_ccn_kernel(side, unit[0], 0.02) == 0.0).all()


def misaligned(a):
    """A copy of `a` whose data starts one float64 past an allocation: an odd
    offset, so not aligned to 16 bytes or more."""
    out = np.empty(a.size + 1)[1:].reshape(a.shape)
    out[...] = a
    return out


def kernels(rng):
    """(name, function of a block of rows, its (200, ...) argument arrays)
    for every stacked-matmul kernel; M = 45 and k = 31 keep each row's
    stride an odd number of float64s."""
    nbrs, normals, anchors, sigma = plane_block(rng, 200, 31, 45)
    nbrs_p, positions, sigma_p = position_block(rng, 200, 31, 45)
    m = random_units(rng, 200 * 45).reshape(200, 45, 3)
    q = rng.normal(size=(200, 45, 3))
    return [
        ("plane score", score_plane_block, (nbrs, normals, anchors, sigma)),
        ("position score", score_position_block, (nbrs_p, positions, sigma_p)),
        ("normal solver", lambda m, n: _ccn_kernel(m, n, 0.3), (m, random_units(rng, 200))),
        ("position solver", lambda q, x, t2: _ccp_kernel(_lift_products(q), x, t2),
         (q, q[:, :5].mean(axis=1), rng.uniform(0.1, 1.0, 200) ** 2)),
        # the moments matmul and the Newton step; the wider bandwidths make
        # about half the rows concave
        ("position step", lambda q, w, x, t2: _newton_step(_lift_products(q), w, w.sum(axis=1),
                                                           x, t2),
         (q, rng.uniform(0.0, 1.0, (200, 45)), q[:, :5].mean(axis=1),
          rng.uniform(0.1, 3.0, 200) ** 2)),
    ]


@pytest.mark.parametrize("which", range(5))
def test_row_bytes_do_not_depend_on_the_stack(which):
    # the byte contract across thread counts, block sizes and single-point
    # calls rests on this: a row's result must be the same computed alone,
    # in a stack of 200 or from a slice starting at an odd offset
    name, fn, args = kernels(np.random.default_rng(5))[which]
    stack = fn(*args)
    odd = [misaligned(a) for a in args]
    # every row alone: a sum whose rounding follows the batch size (einsum's
    # can) differs on some rows only
    for r in range(len(stack)):
        alone = fn(*(a[r:r + 1].copy() for a in args))
        assert alone[0].tobytes() == stack[r].tobytes(), (name, r)
    for r in (0, 1, 37, 100, 198):
        sliced = fn(*(a[r:r + 2] for a in odd))
        tail = fn(*(a[r:] for a in odd))
        for got in (sliced[0], tail[0]):
            assert got.tobytes() == stack[r].tobytes(), (name, r)


@pytest.mark.parametrize("s2", [None, 0.37], ids=["points", "bandwidth"])
def test_lift_bytes_do_not_depend_on_memory_order(s2):
    # |p|^2 is summed over a C-ordered copy: an F-ordered copy or a strided
    # view of the same points lifts to the same bytes
    rng = np.random.default_rng(11)
    p = rng.normal(size=(200, 3)) * [1.0, 1e3, 1e-3]
    wide = np.zeros((400, 5))
    wide[::2, 1:4] = p
    ref = lift(p, s2).tobytes()
    for other in (np.asfortranarray(p), wide[::2, 1:4]):
        assert lift(other, s2).tobytes() == ref
