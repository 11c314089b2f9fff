"""Point-cloud normal estimation and denoising by multi-sample consensus:
random plane hypotheses, kernel-score rejection, and mode seeking."""

from .candidates import SamplingParams, rejection_sigma
from .consensus import ConsensusParams
from .errors import ConfigError, NormalNotUnit, NormfitError, ParseError, TooFewNeighbors
from .geometry import (
    NeighborIndex,
    PointCloud,
    build_index,
)
from .io import read_cloud, read_ply, read_xyz, write_cloud, write_ply, write_xyz
from .metrics import EvalReport, chamfer, evaluate_normals, p2s, pca_baseline, pgp, rms_angle, rms_tau
from .noise import AdaptiveConfig, NoiseProfile, adaptive_k, cloud_noise_scale, rejection_enabled
from .pipeline import (
    EstimationParams,
    RunReport,
    denoise_all,
    denoise_point,
    estimate_all,
    estimate_normal,
)
from .synth import NoiseSpec, ShapeSpec, add_noise, gen_shape

__version__ = "0.1.0"
