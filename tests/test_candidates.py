import math

import numpy as np
import pytest

from normfit import SamplingParams, TooFewNeighbors, rejection_sigma
from normfit.candidates import (
    CandidatePlanes,
    _kernel_sum,
    reject_candidates,
    reject_position_candidates,
    sample_normal_candidates,
    sample_position_candidates,
    score_candidates,
    score_position_candidates,
)
from normfit.errors import PersistentDegeneracy
from normfit.pipeline import point_rng

from conftest import Plane, score_candidate

PARAMS = SamplingParams()


def gen(seed=0):
    return point_rng(seed, 0)


def plane_neighbors(rng, n=50, noise=0.0):
    pts = np.zeros((n, 3))
    pts[:, :2] = rng.uniform(-1, 1, (n, 2))
    if noise:
        pts[:, 2] = rng.normal(0, noise, n)
    return pts


class TestNormalSampling:
    def test_exact_plane_all_candidates_equal(self, rng):
        nbrs = plane_neighbors(rng)
        cands = sample_normal_candidates(nbrs, PARAMS, gen(3))
        assert len(cands) == PARAMS.n_candidates
        assert np.allclose(cands.normals, [0, 0, 1], atol=1e-9)

    def test_candidate_mean_direction_matches_true_normal(self, rng):
        # noisy plane: the principal direction of many candidates must align
        # with the true normal (expectation argument, checked by Monte Carlo)
        nbrs = plane_neighbors(rng, n=200, noise=0.01)
        params = SamplingParams(n_candidates=10000)
        cands = sample_normal_candidates(nbrs, params, gen(5))
        outer = cands.normals.T @ cands.normals
        _, v = np.linalg.eigh(outer)
        principal = v[:, 2]
        angle = np.degrees(np.arccos(min(1, abs(principal @ np.array([0, 0, 1.0])))))
        assert angle < 2.0

    def test_collinear_neighbors_raise(self):
        nbrs = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        with pytest.raises(PersistentDegeneracy):
            sample_normal_candidates(nbrs, SamplingParams(k_s=3), gen(0))

    def test_too_few_neighbors(self):
        with pytest.raises(TooFewNeighbors):
            sample_normal_candidates(np.zeros((3, 3)), SamplingParams(k_s=4), gen(0))

    def test_deterministic_for_seed(self, rng):
        nbrs = plane_neighbors(rng, noise=0.05)
        a = sample_normal_candidates(nbrs, PARAMS, gen(11))
        b = sample_normal_candidates(nbrs, PARAMS, gen(11))
        assert np.array_equal(a.normals, b.normals)
        assert np.array_equal(a.anchors, b.anchors)

    def test_no_antipodal_duplicates(self, rng):
        nbrs = plane_neighbors(rng, noise=0.1)
        cands = sample_normal_candidates(nbrs, PARAMS, gen(2))
        lead = np.take_along_axis(
            cands.normals, np.argmax(np.abs(cands.normals), axis=1)[:, None], axis=1)
        assert np.all(lead > 0)


class TestScoring:
    def test_all_on_plane_scores_k(self, rng):
        nbrs = plane_neighbors(rng, n=30)
        plane = Plane(normal=[0, 0, 1], anchor=[0, 0, 0])
        assert score_candidate(nbrs, plane, sigma=0.01) == pytest.approx(30.0)

    def test_one_neighbor_at_sigma(self):
        nbrs = np.zeros((10, 3))
        nbrs[:, 0] = np.arange(10)       # on the plane z=0
        nbrs[0, 2] = 0.05                # exactly sigma off-plane
        plane = Plane(normal=[0, 0, 1], anchor=[0, 0, 0])
        s = score_candidate(nbrs, plane, sigma=0.05)
        assert s == pytest.approx(9 + np.exp(-1), abs=1e-12)

    def test_two_parallel_planes(self, rng):
        sigma = 0.001
        a = plane_neighbors(rng, n=50)
        b = plane_neighbors(rng, n=50)
        # far enough that the total far-plane contribution is < 1e-6, near
        # enough that it is not rounded away when added to 50.0
        b[:, 2] = 5 * sigma
        nbrs = np.vstack([a, b])
        plane_a = Plane(normal=[0, 0, 1], anchor=[0, 0, 0])
        s = score_candidate(nbrs, plane_a, sigma)
        assert 50 < s < 50 + 1e-6

    def test_score_bound(self, rng):
        nbrs = plane_neighbors(rng, n=40, noise=0.2)
        cands = sample_normal_candidates(nbrs, PARAMS, gen(4))
        scores = score_candidates(nbrs, cands, sigma=0.01)
        assert np.all(scores > 0)
        assert np.all(scores <= 40 + 1e-12)

    def test_score_monotone_in_distance(self):
        nbrs = np.zeros((5, 3))
        nbrs[:, 0] = np.arange(5)
        plane = Plane(normal=[0, 0, 1], anchor=[0, 0, 0])
        s0 = score_candidate(nbrs, plane, sigma=0.1)
        nbrs[2, 2] = 0.05
        s1 = score_candidate(nbrs, plane, sigma=0.1)
        nbrs[2, 2] = 0.25
        s2 = score_candidate(nbrs, plane, sigma=0.1)
        assert s0 > s1 > s2


class TestRejectionSigma:
    def test_examples(self):
        assert rejection_sigma([0.2, 1.0, 0.7]) == pytest.approx(0.01)
        assert rejection_sigma([2.0, 2.0, 2.0]) == pytest.approx(0.02)
        assert rejection_sigma([0.5]) == pytest.approx(0.005)


class TestRejectCandidates:
    def _with_scores(self, scores):
        n = len(scores)
        return CandidatePlanes(
            normals=np.tile([0.0, 0.0, 1.0], (n, 1)),
            anchors=np.arange(3 * n, dtype=float).reshape(n, 3),
            scores=np.asarray(scores, dtype=float),
        )

    def test_rank_rule(self):
        cands = self._with_scores(np.arange(1.0, 11.0))
        kept = reject_candidates(cands, 0.2)
        assert sorted(kept.scores) == list(np.arange(3.0, 11.0))
        assert list(kept.scores) == sorted(kept.scores, reverse=True)

    def test_fraction_zero_identity(self):
        cands = self._with_scores([5.0, 2.0, 9.0])
        kept = reject_candidates(cands, 0.0)
        assert list(kept.scores) == [9.0, 5.0, 2.0]
        assert len(kept) == 3

    def test_never_removes_top(self, rng):
        for _ in range(20):
            cands = self._with_scores(rng.uniform(0, 10, 17))
            top = cands.scores.max()
            kept = reject_candidates(cands, 0.9)
            assert kept.scores[0] == top

    def test_stable_on_ties(self):
        cands = self._with_scores([1.0, 3.0, 3.0, 2.0])
        kept = reject_candidates(cands, 0.25)
        # the two 3.0-scored candidates keep their original relative order
        assert np.allclose(kept.scores, [3.0, 3.0, 2.0])
        assert kept.anchors[0][0] == 3.0 and kept.anchors[1][0] == 6.0


class TestPositionCandidates:
    def test_identical_neighbors(self):
        nbrs = np.tile([1.0, 2.0, 3.0], (10, 1))
        cands = sample_position_candidates(nbrs, PARAMS, gen(0))
        assert np.allclose(cands.positions, [1, 2, 3])

    def test_exactly_four_neighbors(self):
        nbrs = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        cands = sample_position_candidates(nbrs, PARAMS, gen(0))
        assert np.allclose(cands.positions, nbrs.mean(axis=0))

    def test_symmetric_neighbors_average_to_origin(self, rng):
        half = rng.normal(size=(50, 3))
        nbrs = np.vstack([half, -half])
        params = SamplingParams(n_candidates=10000)
        cands = sample_position_candidates(nbrs, params, gen(1))
        # mean of candidate means ~ 0 within a 3-sigma Monte Carlo band
        sigma_mc = nbrs.std() / np.sqrt(4 * len(cands))
        assert np.all(np.abs(cands.positions.mean(axis=0)) < 3 * sigma_mc + 1e-9)

    def test_too_few(self):
        with pytest.raises(TooFewNeighbors):
            sample_position_candidates(np.zeros((3, 3)), PARAMS, gen(0))

    def test_inside_bounding_box(self, rng):
        nbrs = rng.normal(size=(64, 3))
        cands = sample_position_candidates(nbrs, PARAMS, gen(2))
        lo, hi = nbrs.min(axis=0), nbrs.max(axis=0)
        assert np.all(cands.positions >= lo - 1e-12)
        assert np.all(cands.positions <= hi + 1e-12)


class TestPositionScoring:
    def test_coincident(self):
        nbrs = np.tile([1.0, 1.0, 1.0], (8, 1))
        from normfit.candidates import PositionCandidates
        cands = PositionCandidates(positions=np.array([[1.0, 1.0, 1.0]]))
        s = score_position_candidates(nbrs, cands, sigma=0.1)
        assert s[0] == pytest.approx(8.0)

    def test_single_neighbor_at_sigma(self):
        from normfit.candidates import PositionCandidates
        sigma = 0.3
        nbrs = np.array([[sigma, 0, 0], [20 * sigma, 0, 0], [0, 25 * sigma, 0]])
        cands = PositionCandidates(positions=np.array([[0.0, 0.0, 0.0]]))
        s = score_position_candidates(nbrs, cands, sigma)
        assert s[0] == pytest.approx(np.exp(-1), abs=1e-6)

    def test_centroid_beats_far_query(self, rng):
        from normfit.candidates import PositionCandidates
        cluster = rng.normal(0, 0.05, (30, 3))
        cands = PositionCandidates(positions=np.array([cluster.mean(axis=0),
                                                       [5.0, 5.0, 5.0]]))
        s = score_position_candidates(cluster, cands, sigma=0.1)
        assert s[0] > s[1]

    def test_rejection(self, rng):
        from normfit.candidates import PositionCandidates
        cands = PositionCandidates(positions=rng.normal(size=(10, 3)),
                                   scores=np.arange(10.0))
        kept = reject_position_candidates(cands, 0.1)
        assert len(kept) == 9
        assert kept.scores[0] == 9.0


class TestKernelSum:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_terms_past_the_clamp_leave_the_sum_exact(self, axis):
        # one term of exactly 1 and exponents around the clamp at 700, in
        # exp's subnormal range (708-745), past its underflow to 0, and inf
        d = np.array([0.0, 650.0, 699.0, 700.0, 701.5, 708.3, 730.0, 745.2, 1e4, np.inf])
        exact = math.fsum(math.exp(-x) for x in d)
        d = d[None, :] if axis == 1 else d[:, None]
        got = _kernel_sum(-np.tile(d, (3, 1) if axis == 1 else (1, 3)), axis=axis)
        assert got.tobytes() == np.full(3, exact).tobytes()
