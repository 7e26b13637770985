"""Tests for the synthetic cloud generator."""

import math

import numpy as np
import pytest

from steelnav.cloud import RigidTransform
from steelnav.errors import DomainError
from steelnav.synth import CloudShape, SyntheticCloudSpec, generate_cloud, surface_grid


def test_default_square_point_count():
    # 0.30 m at 0.01 m pitch: 31 samples per axis
    spec = SyntheticCloudSpec()
    assert len(surface_grid(spec)) == 31 * 31
    assert len(generate_cloud(spec)) == 961


def test_grid_is_centered_and_planar():
    pts = surface_grid(SyntheticCloudSpec())
    assert pts[:, 0].min() == pytest.approx(-0.15)
    assert pts[:, 0].max() == pytest.approx(0.15)
    assert pts[:, 1].min() == pytest.approx(-0.15)
    assert pts[:, 1].max() == pytest.approx(0.15)
    np.testing.assert_array_equal(pts[:, 2], np.zeros(len(pts)))


def test_strip_count_matches_axis_product():
    spec = SyntheticCloudSpec(shape=CloudShape.STRIP, size_x=0.40, size_y=0.05, pitch=0.01)
    assert len(surface_grid(spec)) == 41 * 6


def test_l_shape_removes_open_positive_quadrant():
    spec = SyntheticCloudSpec(shape=CloudShape.L_SHAPE, size_x=0.30, size_y=0.30, pitch=0.01)
    pts = surface_grid(spec)
    # 31x31 grid minus the strictly positive 15x15 corner; axis points stay
    assert len(pts) == 31 * 31 - 15 * 15
    assert not ((pts[:, 0] > 1e-9) & (pts[:, 1] > 1e-9)).any()
    on_axes = (np.abs(pts[:, 0]) <= 1e-9) | (np.abs(pts[:, 1]) <= 1e-9)
    assert on_axes.sum() == 61


def test_hole_removes_closed_center_block():
    spec = SyntheticCloudSpec(shape=CloudShape.RECTANGLE_WITH_HOLE, size_x=0.30, size_y=0.30,
                              pitch=0.01, hole_size=0.10)
    pts = surface_grid(spec)
    # the closed hole block spans 11 samples per axis
    assert len(pts) == 31 * 31 - 11 * 11
    assert not ((np.abs(pts[:, 0]) <= 0.05 + 1e-9) & (np.abs(pts[:, 1]) <= 0.05 + 1e-9)).any()


def test_circle_count_matches_disk_mask():
    spec = SyntheticCloudSpec(shape=CloudShape.CIRCLE, size_x=0.30, size_y=0.30, pitch=0.01)
    xs = -0.15 + 0.01 * np.arange(31)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    expected = int((gx ** 2 + gy ** 2 <= 0.15 ** 2 + 1e-9).sum())
    assert len(surface_grid(spec)) == expected
    pts = surface_grid(spec)
    assert (pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 0.15 ** 2 + 1e-6).all()


def test_noise_perturbs_but_preserves_count():
    spec = SyntheticCloudSpec(noise_sigma=0.002)
    cloud = generate_cloud(spec, seed=1)
    assert len(cloud) == 961
    assert np.abs(cloud.points[:, 2]).max() > 0.0
    assert np.abs(cloud.points[:, 2]).max() < 0.02


def test_outlier_count_formula():
    spec = SyntheticCloudSpec(outlier_fraction=0.2)
    cloud = generate_cloud(spec, seed=0)
    n_out = int(round(0.2 / 0.8 * 961))
    assert len(cloud) == 961 + n_out
    # surface points come first, in grid order
    np.testing.assert_array_equal(cloud.points[:961], surface_grid(spec))


def test_outliers_stay_inside_padded_bounds():
    spec = SyntheticCloudSpec(outlier_fraction=0.3)
    cloud = generate_cloud(spec, seed=2)
    tail = cloud.points[961:]
    assert len(tail) > 0
    assert (tail.min(axis=0) >= np.array([-0.25, -0.25, -0.1]) - 1e-12).all()
    assert (tail.max(axis=0) <= np.array([0.25, 0.25, 0.1]) + 1e-12).all()


def test_pose_is_applied_after_sampling():
    pose = RigidTransform.from_euler_zyx(0.3, -0.2, 0.1, translation=(1.0, -2.0, 0.5))
    flat = generate_cloud(SyntheticCloudSpec(), seed=0)
    posed = generate_cloud(SyntheticCloudSpec(pose=pose), seed=0)
    np.testing.assert_allclose(posed.points, pose.apply(flat.points), atol=1e-12)


def test_generation_is_deterministic():
    spec = SyntheticCloudSpec(noise_sigma=0.001, outlier_fraction=0.1)
    a = generate_cloud(spec, seed=9)
    b = generate_cloud(spec, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    c = generate_cloud(spec, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_spec_validation():
    with pytest.raises(DomainError):
        SyntheticCloudSpec(size_x=0.0)
    with pytest.raises(DomainError):
        SyntheticCloudSpec(pitch=-0.01)
    with pytest.raises(DomainError):
        SyntheticCloudSpec(noise_sigma=-1.0)
    with pytest.raises(DomainError):
        SyntheticCloudSpec(outlier_fraction=1.0)
    with pytest.raises(DomainError):
        SyntheticCloudSpec(hole_size=0.0)


@pytest.mark.parametrize("field", ["size_x", "size_y", "pitch", "noise_sigma", "hole_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_values(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        SyntheticCloudSpec(**{field: value})


def test_spec_rejects_a_grid_too_large_to_index():
    with pytest.raises(DomainError, match="too large to index"):
        SyntheticCloudSpec(size_x=1e308, size_y=1e308, pitch=1e-3)
    with pytest.raises(DomainError, match="too large to index"):
        SyntheticCloudSpec(pitch=1e-300)
    with pytest.raises(DomainError, match="too large to index"):
        SyntheticCloudSpec(outlier_fraction=1.0 - 2.0 ** -53)


def test_shape_accepts_plain_strings():
    spec = SyntheticCloudSpec(shape="circle")
    assert spec.shape is CloudShape.CIRCLE
    with pytest.raises(ValueError):
        SyntheticCloudSpec(shape="hexagon")
