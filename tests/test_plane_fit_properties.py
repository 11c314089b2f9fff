"""Property tests of the covariance/eigen kernel `plane_fit` and its
degeneracy flag in `fit_planes_batch`."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from normfit.geometry import canonical_sign, fit_planes_batch, plane_fit

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
sizes = st.integers(3, 65)


@st.composite
def point_sets(draw):
    """(M, k, 3) sets of arbitrary points, some with duplicated rows and
    some collinear."""
    m, k = draw(st.integers(1, 4)), draw(sizes)
    pts = draw(arrays(np.float64, (m, k, 3), elements=coords))
    for i in range(m):
        kind = draw(st.sampled_from(["plain", "duplicates", "collinear"]))
        if kind == "duplicates":
            rows = draw(arrays(np.intp, k, elements=st.integers(0, k - 1)))
            pts[i] = pts[i][rows]
        elif kind == "collinear":
            t = draw(arrays(np.float64, k, elements=st.floats(-10.0, 10.0)))
            pts[i] = pts[i, 0] + t[:, None] * pts[i, 1]
    return pts


@st.composite
def similarity(draw):
    """(rotation, translation, scale) of a random similarity transform."""
    seed = draw(st.integers(0, 2**32 - 1))
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))     # a rotation, not a reflection
    t = draw(arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
    s = draw(st.floats(1e-3, 1e3))
    return q, t, s


@settings(deadline=None)
@given(point_sets())
def test_eigenvalues_finite_ascending_nonnegative(pts):
    _, _, w = plane_fit(pts)
    assert np.isfinite(w).all()
    assert np.all(np.diff(w, axis=1) >= 0.0)
    assert np.all(w >= 0.0)


@settings(deadline=None)
@given(point_sets())
def test_normals_unit_and_sign_canonical(pts):
    normals, _, _ = plane_fit(pts)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(canonical_sign(normals), normals)


@settings(deadline=None)
@given(point_sets(), similarity())
def test_similarity_scales_eigenvalues_and_rotates_normal(pts, transform):
    pts = pts / max(1.0, np.abs(pts).max())
    q, t, s = transform
    moved = s * (pts @ q.T + t)
    normals, _, w = plane_fit(pts)
    normals2, _, w2 = plane_fit(moved)
    # round-off from centring the translated points is about eps * |t| per
    # coordinate, so the tolerance grows with the translation
    atol = 1e-10 * (1.0 + np.abs(t).max()) ** 2
    assert np.allclose(w2 / s**2, w, rtol=1e-9, atol=atol)
    separated = w[:, 1] - w[:, 0] > 1e-4 * (1.0 + np.abs(t).max()) ** 2
    for n, n2 in zip(normals[separated], normals2[separated]):
        assert np.linalg.norm(np.cross(n2, q @ n)) < 1e-6


@st.composite
def degenerate_sets(draw):
    """(M, k, 3) sets that are exactly collinear or coincident: small-integer
    coordinates keep the points exact in floating point."""
    m, k = draw(st.integers(1, 4)), draw(sizes)
    ints = st.integers(-50, 50)
    out = np.empty((m, k, 3))
    for i in range(m):
        a = draw(arrays(np.float64, 3, elements=ints))
        if draw(st.booleans()):
            d = draw(arrays(np.float64, 3, elements=st.integers(-5, 5)))
            t = draw(arrays(np.float64, k, elements=st.integers(-20, 20)))
            out[i] = a + t[:, None] * d
        else:
            out[i] = draw(arrays(np.float64, 3, elements=coords))
    scale = 2.0 ** draw(st.integers(-20, 20))
    return out * scale


@settings(deadline=None)
@given(degenerate_sets())
def test_collinear_and_coincident_flagged_degenerate(pts):
    _, _, degenerate = fit_planes_batch(pts)
    assert degenerate.all()
