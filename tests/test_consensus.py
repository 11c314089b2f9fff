from unittest import mock

import numpy as np
import pytest

from normfit import (ConsensusParams, EstimationParams, consensus, denoise_all, estimate_all,
                     pipeline, rms_angle)
from normfit.consensus import (_lift_products, _newton_step, _power_step, ccn_loss, ccp_loss,
                               normal_mode, position_mode, position_mode_batch)
from normfit.errors import EmptyCandidates
from normfit.synth import SHAPE_KINDS, NoiseSpec, ShapeSpec, add_noise, gen_shape

from conftest import (eigen_step, grid_min_normal, mean_mode_normal, mean_shift_modes,
                      newton_matrix, random_units)

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
PARAMS = ConsensusParams()


class TestCcnLoss:
    def test_single_equal(self):
        assert ccn_loss(EZ, [EZ]) == pytest.approx(-1.0)

    def test_single_perpendicular(self):
        assert ccn_loss(EZ, [EX], tau=0.5) == pytest.approx(-np.exp(-4.0), abs=1e-12)

    def test_antipodal_pair(self):
        assert ccn_loss(EZ, [EZ, -EZ]) == pytest.approx(-2.0)

    def test_antipodal_invariance(self, rng):
        cands = random_units(rng, 30)
        for n in random_units(rng, 10):
            assert ccn_loss(n, cands) == pytest.approx(ccn_loss(-n, cands))


class TestNormalMode:
    def test_all_equal(self):
        m = np.array([0.6, 0.0, 0.8])
        res = normal_mode([m] * 5, PARAMS, init=m)
        assert np.allclose(res.value, m, atol=1e-9)
        assert res.converged

    def test_dominant_mode_70_30(self):
        cands = np.vstack([np.tile(EZ, (70, 1)), np.tile(EX, (30, 1))])
        res = normal_mode(cands, PARAMS, init=EZ)
        assert np.degrees(np.arccos(abs(res.value @ EZ))) < 0.5
        # grid-search oracle confirms e_z is the global minimum
        oracle, oracle_loss = grid_min_normal(cands, PARAMS.tau_normal, step_deg=2.0)
        assert np.degrees(np.arccos(min(1, abs(oracle @ EZ)))) < 2.0
        assert res.loss <= oracle_loss + 1e-9

    def test_exact_tie_resolved_by_init(self):
        cands = np.vstack([np.tile(EZ, (50, 1)), np.tile(EX, (50, 1))])
        res = normal_mode(cands, PARAMS, init=EZ)
        assert np.degrees(np.arccos(abs(res.value @ EZ))) < 0.5

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidates):
            normal_mode(np.zeros((0, 3)), PARAMS, init=EZ)

    def test_zero_weights_returns_nearest(self):
        # every kernel weight underflows at the init; the point stops at the
        # candidate of largest |n.m|, not at a direction no candidate supports
        cands = np.array([[1.0, 0.0, 0.0], [0.99, 0.141, 0.0]])
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        res = normal_mode(cands, ConsensusParams(tau_normal=0.01), init=[0, 1, 0])
        assert np.array_equal(res.value, cands[1])
        assert res.loss == pytest.approx(-1.0)
        assert not res.converged

    def test_loss_at_result_never_above_init(self, rng):
        for _ in range(20):
            cands = random_units(rng, 40)
            init = cands[0]
            res = normal_mode(cands, PARAMS, init=init)
            assert res.loss <= ccn_loss(init, cands, PARAMS.tau_normal) + 1e-12
            assert res.iterations <= PARAMS.max_iters

    def test_rotation_equivariance(self, rng):
        cands = np.vstack([np.tile(EZ, (30, 1)) + rng.normal(0, 0.05, (30, 3))])
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        res = normal_mode(cands, PARAMS, init=cands[0])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        res_rot = normal_mode(cands @ q.T, PARAMS, init=cands[0] @ q.T)
        ang = np.degrees(np.arccos(min(1, abs(res_rot.value @ (q @ res.value)))))
        assert ang < 0.1

    def test_sign_flips_do_not_matter(self, rng):
        cands = random_units(rng, 25)
        res = normal_mode(cands, PARAMS, init=cands[3])
        flips = np.where(rng.random(25) < 0.5, -1.0, 1.0)
        res_flipped = normal_mode(cands * flips[:, None], PARAMS, init=cands[3])
        assert np.allclose(res.value, res_flipped.value, atol=1e-9)

    def test_inlier_dominance(self, rng):
        for _ in range(25):
            d = random_units(rng, 1)[0]
            # orthonormal frame around d
            a = np.cross(d, EX if abs(d[0]) < 0.9 else EZ)
            a /= np.linalg.norm(a)
            b = np.cross(d, a)
            n_in = 60 + int(rng.integers(0, 20))
            jitter = np.radians(rng.uniform(0, 5, n_in))
            phi = rng.uniform(0, 2 * np.pi, n_in)
            inliers = (np.cos(jitter)[:, None] * d
                       + np.sin(jitter)[:, None] * (np.cos(phi)[:, None] * a + np.sin(phi)[:, None] * b))
            tilt = np.radians(rng.uniform(80, 90, 100 - n_in))
            phi2 = rng.uniform(0, 2 * np.pi, 100 - n_in)
            outliers = (np.cos(tilt)[:, None] * d
                        + np.sin(tilt)[:, None] * (np.cos(phi2)[:, None] * a + np.sin(phi2)[:, None] * b))
            cands = np.vstack([inliers, outliers])
            res = normal_mode(cands, PARAMS, init=inliers[0])
            assert np.degrees(np.arccos(min(1, abs(res.value @ d)))) < 5.0


class TestMeanModeNormal:
    def test_all_equal(self):
        m = np.array([0.0, 0.6, 0.8])
        assert np.allclose(mean_mode_normal([m] * 4), m, atol=1e-12)

    def test_antipodal(self):
        assert np.allclose(mean_mode_normal([EZ, -EZ, EZ]), EZ)

    def test_minimizes_cross_product_loss(self, rng):
        cands = random_units(rng, 100)
        out = mean_mode_normal(cands)

        def sq_loss(z):
            return float((1.0 - (cands @ z) ** 2).sum())

        best = sq_loss(out)
        for z in np.vstack([cands, random_units(rng, 10000)]):
            assert best <= sq_loss(z) + 1e-9

    def test_matches_normal_mode_at_huge_tau(self, rng):
        cands = random_units(rng, 50)
        out = mean_mode_normal(cands)
        res = normal_mode(cands, ConsensusParams(tau_normal=1.0, max_iters=200, tol_deg=1e-4),
                          init=cands[0])
        # tau -> infinity limit; tau is capped at 1 so compare loosely via
        # an explicit huge-bandwidth run of the exact eigenvector update
        n = cands[0]
        for _ in range(200):
            w = np.exp(-(1.0 - (cands @ n) ** 2) / 100.0**2)
            n = np.linalg.eigh((cands * w[:, None]).T @ cands)[1][:, 2]
        assert np.degrees(np.arccos(min(1, abs(out @ n)))) < 0.1

    def test_empty(self):
        with pytest.raises(EmptyCandidates):
            mean_mode_normal(np.zeros((0, 3)))


class TestPowerStep:
    def test_weight_scale_does_not_matter(self, rng):
        # weights scaled by 2^-1060 are subnormal but exact; rescaled by
        # their row maximum they give the same step, byte for byte
        m = random_units(rng, 12)[None]
        w = 2.0 ** -rng.integers(0, 12, (1, 12)).astype(np.float64)
        n = random_units(rng, 1)
        want = _power_step(m, w, n)
        assert np.isfinite(want).all()
        assert _power_step(m, w * 2.0**-1060, n).tobytes() == want.tobytes()

    def test_matches_eigen_step_on_small_clouds(self):
        # per cloud, the RMS error moves by at most 0.01 degrees against the
        # exact eigenvector update, and unconverged points rise by at most 15%
        unconverged = {"power": 0, "eigen": 0}
        for kind in SHAPE_KINDS:
            for noise in (0.0, 1.0):
                cloud = add_noise(gen_shape(ShapeSpec(kind=kind, n_points=300, seed=0)),
                                  NoiseSpec(std_pct_bbox_diag=noise, seed=0))
                est, report = estimate_all(cloud, EstimationParams())
                with mock.patch.object(consensus, "_power_step", eigen_step):
                    ref, ref_report = estimate_all(cloud, EstimationParams())
                err, ref_err = (rms_angle(e.normals, cloud.normals) for e in (est, ref))
                assert abs(err - ref_err) <= 0.01, (kind, noise, err, ref_err)
                unconverged["power"] += int((~report.converged).sum())
                unconverged["eigen"] += int((~ref_report.converged).sum())
        assert unconverged["power"] <= 1.15 * unconverged["eigen"], unconverged


class TestCcpLoss:
    def test_at_candidate(self):
        assert ccp_loss([1, 2, 3], [[1, 2, 3]], tau=0.5) == pytest.approx(-1.0)

    def test_at_tau(self):
        assert ccp_loss([0.5, 0, 0], [[0, 0, 0]], tau=0.5) == pytest.approx(-np.exp(-1))

    def test_far_away(self):
        cands = np.zeros((5, 3))
        loss = ccp_loss([10 * 0.5, 0, 0], cands, tau=0.5)
        assert -5 * np.exp(-100) <= loss <= 0


class TestPositionMode:
    def test_all_equal(self):
        p = np.array([1.0, -2.0, 0.5])
        res = position_mode([p] * 6, PARAMS, init=[0, 0, 0], tau=1.0)
        assert np.allclose(res.value, p, atol=1e-9)

    def test_nine_to_one(self):
        cands = np.zeros((10, 3))
        cands[9] = [1.0, 0.0, 0.0]
        res = position_mode(cands, PARAMS, init=[0, 0, 0], tau=0.1)
        assert np.linalg.norm(res.value) < 1e-6
        # dense 1-D line-search oracle along x confirms the mode sits at 0
        xs = np.linspace(-0.5, 1.5, 20001)
        losses = [ccp_loss([x, 0, 0], cands, tau=0.1) for x in xs]
        assert abs(xs[int(np.argmin(losses))]) < 1e-4

    def test_symmetric_fixed_point(self):
        cands = np.array([[0.5, 0, 0], [-0.5, 0, 0]])
        res = position_mode(cands, PARAMS, init=[0, 0, 0], tau=10.0)
        assert np.allclose(res.value, 0.0, atol=1e-9)

    def test_zero_weights_returns_nearest(self):
        cands = np.array([[1e6, 0, 0], [2e6, 0, 0]])
        res = position_mode(cands, PARAMS, init=[0, 0, 0], tau=1e-3)
        assert np.allclose(res.value, [1e6, 0, 0])
        assert not res.converged

    def test_empty(self):
        with pytest.raises(EmptyCandidates):
            position_mode(np.zeros((0, 3)), PARAMS, init=[0, 0, 0], tau=1.0)

    def test_iterations_do_not_grow_with_scale(self, rng):
        # the step tolerance is a fraction of the bandwidth, so candidates
        # and bandwidths 1000 times larger take no more iterations
        q = rng.normal(size=(50, 90, 3)) * 0.1
        tau = np.full(50, 0.1)
        init = np.zeros((50, 3))
        _, _, ref, _ = position_mode_batch(q, PARAMS, init, tau)
        _, _, big, _ = position_mode_batch(q * 1e3, PARAMS, init, tau * 1e3)
        assert big.sum() <= ref.sum()

    def test_loss_never_worse_than_init(self, rng):
        for _ in range(10):
            cands = rng.normal(size=(30, 3))
            init = rng.normal(size=3)
            res = position_mode(cands, PARAMS, init=init, tau=0.7)
            assert res.loss <= ccp_loss(init, cands, 0.7) + 1e-12

    def test_non_concave_start_takes_the_mean_shift_step(self):
        # candidates at x = -1 and x = +1, tau = 1: at (0.2, 0, 0) the density
        # curves up along x, so the step is the mean-shift point; the Newton
        # point would head for the saddle between the candidates
        cands = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        x0 = np.array([0.2, 0.0, 0.0])
        w = np.exp(-((cands - x0) ** 2).sum(axis=1))
        h = newton_matrix(cands[None], w[None], x0[None], np.ones(1))[0]
        assert np.linalg.eigvalsh(h)[0] < 0.0
        shift = w @ cands / w.sum()
        newton = x0 + np.linalg.solve(h, shift - x0)
        res = position_mode(cands, ConsensusParams(max_iters=1), init=x0, tau=1.0)
        assert np.allclose(res.value, shift, rtol=0.0, atol=1e-15)
        assert abs(res.value[0] - newton[0]) > 0.1
        assert res.loss < ccp_loss(x0, cands, 1.0)

    def test_newton_point_that_raises_the_loss_is_retried_at_the_mean_shift_point(self):
        # one candidate at the origin, tau = 1, from (0.6, 0, 0): the density
        # is concave there (H = diag(1 - 2 * 0.6^2, 1, 1)), but its Newton
        # point 0.6 - 0.6 / 0.28 lies farther out on the other side, with a
        # higher loss; the retry lands on the candidate, the mean-shift point
        cands = np.zeros((1, 3))
        x0 = np.array([0.6, 0.0, 0.0])
        assert ccp_loss(x0 - x0 / 0.28, cands, 1.0) > ccp_loss(x0, cands, 1.0)
        res = position_mode(cands, ConsensusParams(max_iters=1), init=x0, tau=1.0)
        assert np.array_equal(res.value, np.zeros(3)) and res.loss == -1.0
        assert (res.iterations, res.converged) == (1, False)
        res = position_mode(cands, PARAMS, init=x0, tau=1.0)
        assert (res.iterations, res.converged) == (2, True)


class TestNewtonStep:
    def test_solves_the_newton_system_where_concave(self, rng):
        # rows whose matrix H = newton_matrix has its smallest eigenvalue
        # above 0.1 (its largest is at most 1, so H's condition number is at
        # most 10) must give x + H^-1 d; rows with one below -0.1 must give
        # the mean-shift point x + d.  The library forms H from moments about
        # the origin, E[q q^T] - mu mu^T + d d^T, and the test sums about x
        # directly: with |q|, |x| <= 3 and tau^2 >= 1 the two differ by a few
        # u * 9 * 2 / tau^2 per entry, about 1e-14, and the adjugate and LAPACK
        # solves by about 10 u cond(H); so the solution errs by under 1e-12
        # of |H^-1 d| + 1, and 1e-10 leaves room
        q = rng.uniform(-1.0, 1.0, (400, 30, 3))
        x = rng.uniform(-1.0, 1.0, (400, 3))
        tau2 = rng.uniform(1.0, 4.0, 400)
        w = np.exp(-((q - x[:, None]) ** 2).sum(axis=2) / tau2[:, None])
        got = _newton_step(_lift_products(q), w, w.sum(axis=1), x, tau2)
        h = newton_matrix(q, w, x, tau2)
        d = (w[:, :, None] * q).sum(axis=1) / w.sum(axis=1)[:, None] - x
        lowest = np.linalg.eigvalsh(h)[:, 0]
        concave, curved = lowest > 0.1, lowest < -0.1
        assert concave.sum() > 50 and curved.sum() > 50
        want = x + np.linalg.solve(h, d[:, :, None])[:, :, 0]
        scale = np.linalg.norm(want - x, axis=1, keepdims=True) + 1.0
        assert (np.abs(got - want)[concave] <= 1e-10 * scale[concave]).all()
        assert np.allclose(got[curved], (x + d)[curved], rtol=0.0, atol=1e-13)


# the denoise block of each 200-point shape at 1% noise (one block per
# cloud, seed 0): the most iterations any point took and the points left
# unconverged, as the code gives them
DENOISE_BLOCKS = [("plane", 9, 0), ("sphere", 6, 0), ("cylinder", 10, 0), ("cube", 7, 0),
                  ("wedge", 17, 0)]


@pytest.mark.parametrize("kind, most_iterations, unconverged", DENOISE_BLOCKS,
                         ids=[b[0] for b in DENOISE_BLOCKS])
def test_denoise_modes_match_a_tight_mean_shift(kind, most_iterations, unconverged):
    """Every point ends within tol_pos * sigma of the mode that plain mean
    shift reaches at tol_pos = 1e-13 in at most 20 000 iterations.

    A row stops after a step shorter than tol_pos * sigma.  Near a
    nondegenerate mode the density is concave, so the last steps are
    Newton's, and Newton's error after a step of length s is of order
    s^2 / sigma: about 1e-10 sigma at s = 1e-5 sigma.  The reference stops
    after a mean-shift step s shorter than 1e-13 sigma; mean shift
    converges linearly, at a rate r that leaves it within s r / (1 - r) of
    the mode.  From a first step of at least sigma / 100, reaching 1e-13
    sigma within 500 iterations takes r <= (1e-11)^(1 / 500) < 0.95, so the
    reference is within 2e-12 sigma of the mode.  The sum is far below
    tol_pos * sigma = 1e-5 sigma; the code gives at most 4e-11 sigma.  The
    mean-shift solver that the Newton steps replace ran 43 to 50 iterations
    on these blocks and left 12 points unconverged, 1e-2 sigma from the mode.
    """
    cloud = add_noise(gen_shape(ShapeSpec(kind=kind, n_points=200, seed=0)),
                      NoiseSpec(std_pct_bbox_diag=1.0, seed=0))
    blocks = []
    solve = pipeline.position_mode_batch
    with mock.patch.object(pipeline, "position_mode_batch",
                           lambda *args: blocks.append(args) or solve(*args)):
        denoise_all(cloud, EstimationParams())
    (q, params, init, sigma), = blocks
    x, _, iterations, converged = position_mode_batch(q, params, init, sigma)
    ref, ref_iterations, moving = mean_shift_modes(q, init, sigma, 1e-13, 20_000)
    assert len(moving) == 0 and ref_iterations.max() <= 500
    assert (np.linalg.norm(x - ref, axis=1) <= params.tol_pos * sigma).all()
    assert (int(iterations.max()), int((~converged).sum())) == (most_iterations, unconverged)
