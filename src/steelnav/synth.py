"""Synthetic steel-surface clouds: grid-sampled planar shapes with optional
noise, outliers, and a rigid pose.

Generation is fully deterministic for a given spec and seed (PCG64 via
numpy's default generator), which the test suite and the file generator
command rely on for byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cloud import Frame, PointCloud, RigidTransform
from .errors import DomainError, check_count, check_finite, check_non_negative, check_positive

_EDGE_EPS = 1e-9
# The most points an (N, 3) float64 array can hold within numpy's size limit.
_MAX_POINTS = np.iinfo(np.intp).max // 24


class CloudShape(str, Enum):
    """Planar shapes the generator can sample."""

    RECTANGLE = "rectangle"
    STRIP = "strip"
    L_SHAPE = "l_shape"
    RECTANGLE_WITH_HOLE = "rectangle_with_hole"
    CIRCLE = "circle"


@dataclass(frozen=True)
class SyntheticCloudSpec:
    """Recipe for one synthetic cloud.

    The shape is sampled on a regular grid of spacing ``pitch`` in the z=0
    plane, centered at the origin; ``size_x``/``size_y`` are the overall
    extents (``size_x`` doubles as the diameter for circles).  Gaussian
    noise of ``noise_sigma`` is added per coordinate, then uniform outliers
    are appended so they make up ``outlier_fraction`` of the total, and the
    rigid ``pose`` maps everything into its final position.
    """

    shape: CloudShape = CloudShape.RECTANGLE
    size_x: float = 0.30
    size_y: float = 0.30
    pitch: float = 0.01
    noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    hole_size: float = 0.10
    pose: RigidTransform = RigidTransform.identity()

    def __post_init__(self):
        for name in ("size_x", "size_y", "pitch", "noise_sigma", "hole_size"):
            check_finite(name, getattr(self, name))
        check_positive("shape sizes", self.size_x, self.size_y)
        check_positive("grid pitch", self.pitch)
        check_non_negative("noise sigma", self.noise_sigma)
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise DomainError("outlier fraction must lie in [0, 1)")
        check_positive("hole size", self.hole_size)
        grid = (self.size_x / self.pitch + 1) * (self.size_y / self.pitch + 1)
        if grid / (1.0 - self.outlier_fraction) > _MAX_POINTS:
            raise DomainError(f"a {self.size_x} x {self.size_y} m grid of pitch {self.pitch} m with outlier "
                              f"fraction {self.outlier_fraction} is too large to index")
        object.__setattr__(self, "shape", CloudShape(self.shape))


def _axis_samples(extent: float, pitch: float) -> np.ndarray:
    count = int(round(extent / pitch)) + 1
    return -0.5 * extent + pitch * np.arange(count)


def surface_grid(spec: SyntheticCloudSpec) -> np.ndarray:
    """Noise-free grid points of the shape, z = 0, before posing.

    Membership tests carry a 1e-9 guard so points that land exactly on a
    cut line classify consistently across platforms.
    """
    xs = _axis_samples(spec.size_x, spec.pitch)
    ys = _axis_samples(spec.size_y, spec.pitch)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])

    if spec.shape in (CloudShape.RECTANGLE, CloudShape.STRIP):
        keep = np.ones(len(pts), dtype=bool)
    elif spec.shape is CloudShape.L_SHAPE:
        keep = ~((pts[:, 0] > _EDGE_EPS) & (pts[:, 1] > _EDGE_EPS))
    elif spec.shape is CloudShape.RECTANGLE_WITH_HOLE:
        half = 0.5 * spec.hole_size
        keep = ~((np.abs(pts[:, 0]) <= half + _EDGE_EPS) & (np.abs(pts[:, 1]) <= half + _EDGE_EPS))
    else:  # CloudShape.CIRCLE
        radius = 0.5 * spec.size_x
        keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= radius ** 2 + _EDGE_EPS
    return pts[keep]


def generate_cloud(spec: SyntheticCloudSpec, seed: int = 0) -> PointCloud:
    """Sample the spec into a camera-frame cloud.

    Surface points come first in grid order, appended outliers last, so the
    outlier tail is easy to separate in tests.  A ``seed`` that is not an
    integer of at least 0 raises :class:`DomainError`.
    """
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    surface = surface_grid(spec)
    if spec.noise_sigma > 0:
        surface = surface + rng.normal(0.0, spec.noise_sigma, size=surface.shape)

    points = surface
    if spec.outlier_fraction > 0:
        n_surface = len(surface)
        n_out = int(round(spec.outlier_fraction / (1.0 - spec.outlier_fraction) * n_surface))
        if n_out > 0:
            lo = surface.min(axis=0) - 0.1
            hi = surface.max(axis=0) + 0.1
            outliers = rng.uniform(lo, hi, size=(n_out, 3))
            points = np.vstack([surface, outliers])

    return PointCloud(points=spec.pose.apply(points), frame_id=Frame.CAMERA)
