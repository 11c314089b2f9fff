"""Estimate normals on a noisy wedge and compare against the PCA baseline.

The interesting region is the fold: covariance-based PCA blurs normals
across the crease, while sampling many small plane hypotheses and seeking
the mode of their directions snaps each point to one of the two faces.
"""

import numpy as np

from normfit import (
    AdaptiveConfig,
    EstimationParams,
    NoiseSpec,
    ShapeSpec,
    add_noise,
    adaptive_k,
    build_index,
    cloud_noise_scale,
    estimate_all,
    gen_shape,
    pca_baseline,
    pgp,
    rms_angle,
)


def main():
    clean = gen_shape(ShapeSpec(kind="wedge", n_points=5000, seed=1))
    noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=0.5, seed=2))
    print(f"wedge with {len(noisy)} points, 0.5% Gaussian noise")

    est, report = estimate_all(noisy, EstimationParams(seed=3), n_threads=4)

    index = build_index(noisy)
    profile = cloud_noise_scale(index, 64)
    k_hat = adaptive_k(profile.cloud_f, AdaptiveConfig())
    base = pca_baseline(noisy, k_hat)
    print(f"estimated noise level f = {profile.cloud_f:.4f} -> neighborhood k = {k_hat}")

    spacing = float(np.median(index.knn_batch(1)[1]))
    near_edge = np.linalg.norm(clean.points[:, 1:], axis=1) < 5 * spacing

    print()
    print(f"{'':>18} {'ours':>8} {'pca':>8}")
    print(f"{'rms (deg)':>18} {rms_angle(est.normals, clean.normals):8.2f} "
          f"{rms_angle(base.normals, clean.normals):8.2f}")
    print(f"{'pgp10 overall':>18} {pgp(est.normals, clean.normals, 10):8.2f} "
          f"{pgp(base.normals, clean.normals, 10):8.2f}")
    print(f"{'pgp10 near edge':>18} "
          f"{pgp(est.normals[near_edge], clean.normals[near_edge], 10):8.2f} "
          f"{pgp(base.normals[near_edge], clean.normals[near_edge], 10):8.2f}")
    print(f"\nmode solver converged for {report.converged.mean():.1%} of points "
          f"({report.survivors.mean():.0f} of 100 candidates survive rejection, "
          f"{report.fallback.sum()} PCA fallbacks)")


if __name__ == "__main__":
    main()
