import numpy as np
import pytest

from normfit import ConsensusParams
from normfit.consensus import ccn_loss, ccp_loss, normal_mode, position_mode, position_mode_batch
from normfit.errors import EmptyCandidates

from conftest import grid_min_normal, mean_mode_normal, random_units

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
        # an explicit huge-bandwidth run of the same iteration
        from normfit.consensus import _weighted_principal
        n = cands[0]
        for _ in range(200):
            w = np.exp(-(1.0 - (cands @ n) ** 2) / 100.0**2)
            n = _weighted_principal(cands[None], w[None])[0]
        assert np.degrees(np.arccos(min(1, abs(out @ n)))) < 0.1

    def test_empty(self):
        with pytest.raises(EmptyCandidates):
            mean_mode_normal(np.zeros((0, 3)))


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
