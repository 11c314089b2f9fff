"""Oracle tests of `plane_fit`'s closed-form eigen solve against
`plane_fit_eigh`, the stacked-covariance `eigh` it replaces.

Tolerances.  Both solvers start from the same centred coordinates.  They
sum the k products of a covariance entry in different orders, which moves
the entry by at most k eps sqrt(a_ii a_jj) <= k eps lam2, so the two
covariances differ by at most 3 k eps lam2 in norm, and (Weyl) so do their
eigenvalues.  The trigonometric formula adds its own error: r = det(B) / 2
is formed with an absolute error of a few eps, and phi = arccos(r) / 3
amplifies it by 1 / (3 sin 3 phi).  With g01 = lam1 - lam0 and
g12 = lam2 - lam1, sin 3 phi >= g01 g12 / (2 sqrt(3) p^2), and with
p <= lam2 / sqrt(2) and max(g01, g12) >= p / sqrt(2) each eigenvalue moves
by a few eps lam2^2 / g, g = min(g01, g12).  Together

    |lam - lam_eigh| <= C eps lam2 (k + lam2 / g).

The normal is the null direction of A - lam0 I.  An error d in lam0 or in A
turns it by at most sqrt(3) d / g01, because the chosen cross product is
the cofactor column of the normal's largest component (at least
1 / sqrt(3)), so

    angle <= C eps (lam2 / g01) (k + lam2 / g).

C = 16 covers the unnamed small constants: over 2e5 random rows with gaps
from 1e-7 to 1e-3 of lam2 the two ratios peaked at 1.13 and 0.39.

Routing.  Next to a repeated eigenvalue the closed form's eigenvalues are
still within about sqrt(eps) p of the truth (arccos moves by sqrt(2 d) at
r = 1 - d), so a row whose gap is a tenth of the 1e-6 threshold cannot pass
it and must go to eigh.  A row ten times above it is off by at most
C eps lam2 (k + 1e5) < 1e-9 lam2 and must stay in closed form.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from normfit.geometry import _CLOSED_FORM_RTOL, fit_planes_batch, plane_fit

from conftest import plane_fit_eigh

EPS = np.finfo(np.float64).eps
C = 16.0
KINDS = ["cloud", "line", "plane", "polygon", "duplicates"]


@contextmanager
def eigh_spy():
    """Collect the matrix stacks handed to np.linalg.eigh."""
    sent, real = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        sent.append(np.array(a))
        return real(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", spy):
        yield sent


def sent_rows(pts, sent):
    """Mask of the rows of `pts` whose stacked covariance went to eigh."""
    c = pts.mean(axis=1)
    q = pts - c[:, None, :]
    cov = np.einsum("mki,mkj->mij", q, q) / pts.shape[1]
    keys = {m.tobytes() for stack in sent for m in stack}
    return np.array([m.tobytes() in keys for m in cov], dtype=bool)


def polygon(k):
    a = 2.0 * np.pi * np.arange(k) / k
    return np.stack([np.cos(a), np.sin(a), np.zeros(k)], axis=1)


@st.composite
def conditioned_sets(draw):
    """(M, k, 3) sets whose eigen-gaps span the closed form's threshold:
    random clouds, and lines, planes and regular polygons perturbed by
    10^-e for e up to 12, or one or two distinct points repeated; each row
    rotated, translated and scaled by 2^-60 .. 2^60."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = np.empty((m, k, 3))
    for i in range(m):
        kind = draw(st.sampled_from(KINDS))
        noise = 10.0 ** -draw(st.floats(0.0, 12.0)) * rng.normal(size=(k, 3))
        if kind == "cloud":
            p = rng.normal(size=(k, 3))
        elif kind == "line":
            p = rng.normal(size=(k, 1)) * rng.normal(size=3) + noise
        elif kind == "plane":
            p = rng.normal(size=(k, 3)) * [1.0, 1.0, 0.0] + noise * [0.0, 0.0, 1.0]
        elif kind == "polygon":
            p = polygon(k) + noise
        else:
            p = rng.normal(size=(2, 3))[rng.integers(0, 2, k)]
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        out[i] = (p @ rot.T + rng.normal(size=3)) * 2.0 ** draw(st.integers(-60, 60))
    return out


def gaps(w):
    """(lam2, g01, min gap) of ascending eigenvalue rows."""
    g01 = w[:, 1] - w[:, 0]
    return w[:, 2], g01, np.minimum(g01, w[:, 2] - w[:, 1])


@settings(deadline=None, max_examples=200)
@given(conditioned_sets())
def test_closed_form_matches_eigh_oracle(pts):
    k = pts.shape[1]
    with eigh_spy() as calls:
        normals, c, w = plane_fit(pts)
    on, oc, ow = plane_fit_eigh(pts)
    sent = sent_rows(pts, calls)
    assert c.tobytes() == oc.tobytes()
    # rows sent to eigh are the oracle's, byte for byte
    assert normals[sent].tobytes() == on[sent].tobytes()
    assert w[sent].tobytes() == ow[sent].tobytes()
    lam2, g01, g = gaps(ow)
    assert sent[g <= 0.1 * _CLOSED_FORM_RTOL * lam2].all()
    assert not sent[g > 10.0 * _CLOSED_FORM_RTOL * lam2].any()
    closed = ~sent
    lam2, g01, g = lam2[closed], g01[closed], g[closed]
    tol_w = C * EPS * lam2 * (k + lam2 / g)
    assert np.all(np.abs(w[closed] - ow[closed]) <= tol_w[:, None])
    # unoriented: the sign is only canonical up to a near-tie of components
    sin = np.linalg.norm(np.cross(normals[closed], on[closed]), axis=1)
    assert np.all(sin <= C * EPS * (lam2 / g01) * (k + lam2 / g))


@settings(deadline=None, max_examples=100)
@given(conditioned_sets())
def test_row_alone_equals_row_in_batch(pts):
    batch = plane_fit(pts)
    for i in range(len(pts)):
        for alone, whole in zip(plane_fit(pts[i:i + 1]), batch):
            assert alone[0].tobytes() == whole[i].tobytes()


def solve_one(p):
    """plane_fit of one set: (normal, eigenvalues, went to eigh)."""
    p = np.asarray(p, dtype=np.float64)[None]
    with eigh_spy() as calls:
        normals, _, w = plane_fit(p)
    sent = bool(sent_rows(p, calls)[0])
    if sent:
        on, _, ow = plane_fit_eigh(p)
        assert normals.tobytes() == on.tobytes() and w.tobytes() == ow.tobytes()
    return normals[0], w[0], sent


class TestNamedCases:
    def test_exact_plane(self, rng):
        # z = 5 exactly: the centred z column is 0, so lam0 = 0
        p = np.column_stack([rng.normal(size=(12, 2)), np.full(12, 5.0)])
        n, w, sent = solve_one(p)
        assert not sent
        lam2, g = w[2], min(w[1] - w[0], w[2] - w[1])
        assert 0.0 <= w[0] <= C * EPS * lam2 * (12 + lam2 / g)
        assert np.linalg.norm(np.cross(n, [0.0, 0.0, 1.0])) <= \
            C * EPS * (lam2 / w[1]) * (12 + lam2 / g)

    def test_regular_polygon(self):
        # lam1 = lam2: the in-plane directions are not separated
        n, w, sent = solve_one(polygon(6) + [1.0, -2.0, 3.0])
        assert sent
        assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-15)
        assert w[2] - w[1] <= 1e-15 * w[2]

    def test_collinear(self):
        p = np.arange(7.0)[:, None] * [1.0, 2.0, -3.0] + [4.0, 5.0, 6.0]
        n, w, sent = solve_one(p)
        assert sent
        assert fit_planes_batch(p[None])[2][0]

    def test_coincident(self):
        n, w, sent = solve_one(np.tile([0.3, -0.2, 0.7], (5, 1)))
        assert sent
        assert np.array_equal(w, np.zeros(3))
        assert np.linalg.norm(n) == 1.0

    def test_isotropic(self):
        # the corners of a cube: three equal eigenvalues
        cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
        _, w, sent = solve_one(cube)
        assert sent
        assert np.allclose(w, 1.0, rtol=1e-15)

    def test_spread_outside_the_float_range_goes_to_eigh(self, rng):
        # p^2 ~ coordinate^4 underflows at 1e-80 and overflows at 1e80
        p = rng.normal(size=(10, 3))
        n_ref, _, _ = solve_one(p)
        for scale in (1e-80, 1e80):
            n, _, sent = solve_one(p * scale)
            assert sent, scale
            assert np.linalg.norm(np.cross(n, n_ref)) < 1e-12, scale
