import numpy as np
import pytest

from steelnav.cloud import (
    FilterConfig,
    Frame,
    PlanarPatch,
    PointCloud,
    RigidTransform,
    load_cloud,
    passthrough,
    ransac_plane,
    save_cloud,
    voxel_downsample,
)
from steelnav.errors import DomainError, ParseError


def make_cloud(points):
    return PointCloud(points=np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# data model


def test_cloud_points_are_read_only():
    cloud = make_cloud([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0


def test_cloud_rejects_bad_shapes_and_values():
    with pytest.raises(DomainError):
        make_cloud([[1.0, 2.0]])
    with pytest.raises(DomainError):
        make_cloud([[np.nan, 0.0, 0.0]])


def test_empty_cloud():
    cloud = make_cloud(np.zeros((0, 3)))
    assert len(cloud) == 0
    assert cloud.is_empty


def test_patch_centroid_must_match_inlier_mean():
    cloud = make_cloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        PlanarPatch(
            inliers=cloud,
            normal=np.array([0.0, 0.0, 1.0]),
            centroid=np.array([5.0, 0.0, 0.0]),
            plane_coeffs=np.array([0.0, 0.0, 1.0, 0.0]),
        )


def test_patch_normal_must_be_unit():
    cloud = make_cloud([[0.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        PlanarPatch(
            inliers=cloud,
            normal=np.array([0.0, 0.0, 2.0]),
            centroid=np.array([0.0, 0.0, 0.0]),
            plane_coeffs=np.array([0.0, 0.0, 1.0, 0.0]),
        )


def test_zero_inlier_patch_is_constructible():
    patch = PlanarPatch(
        inliers=make_cloud(np.zeros((0, 3))),
        normal=np.array([0.0, 0.0, 1.0]),
        centroid=np.array([0.0, 0.0, 0.0]),
        plane_coeffs=np.array([0.0, 0.0, 1.0, 0.0]),
    )
    assert patch.inliers.is_empty


def test_rigid_transform_validation():
    with pytest.raises(DomainError):
        RigidTransform(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(DomainError):
        RigidTransform(rotation=reflection, translation=np.zeros(3))


def test_rigid_transform_apply_and_compose():
    rng = np.random.default_rng(7)
    a = RigidTransform.from_euler_zyx(0.3, -0.2, 0.9, translation=(1.0, -2.0, 0.5))
    b = RigidTransform.from_euler_zyx(-1.1, 0.4, 0.0, translation=(0.0, 3.0, -1.0))
    pts = rng.normal(size=(50, 3))
    composed = RigidTransform(rotation=a.rotation @ b.rotation, translation=a.rotation @ b.translation + a.translation)
    np.testing.assert_allclose(composed.apply(pts), a.apply(b.apply(pts)), atol=1e-12)


def test_identity_transform_is_noop():
    p = np.array([0.1, -0.2, 0.3])
    np.testing.assert_array_equal(RigidTransform.identity().apply(p), p)


def test_filter_config_validation():
    with pytest.raises(DomainError):
        FilterConfig(x_range=(1.0, -1.0))
    with pytest.raises(DomainError):
        FilterConfig(voxel_leaf=0.0)
    with pytest.raises(DomainError):
        FilterConfig(ransac_iterations=0)


# ---------------------------------------------------------------------------
# file I/O


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    cloud = make_cloud(rng.normal(size=(137, 3)))
    path = tmp_path / "c.pcd"
    save_cloud(path, cloud)
    back = load_cloud(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    assert back.frame_id is Frame.CAMERA


def test_save_is_byte_stable(tmp_path):
    cloud = make_cloud(np.random.default_rng(5).normal(size=(30, 3)))
    p1, p2 = tmp_path / "a.pcd", tmp_path / "b.pcd"
    save_cloud(p1, cloud)
    save_cloud(p2, cloud)
    assert p1.read_bytes() == p2.read_bytes()


def _write(tmp_path, text):
    path = tmp_path / "bad.pcd"
    path.write_text(text, encoding="ascii")
    return path


GOOD_HEADER = (
    "VERSION 0.7\nFIELDS x y z\nSIZE 8 8 8\nTYPE F F F\nCOUNT 1 1 1\n"
    "WIDTH 2\nHEIGHT 1\nPOINTS 2\nDATA ascii\n"
)


def test_load_minimal_file(tmp_path):
    path = _write(tmp_path, GOOD_HEADER + "0 0 0\n1 2 3\n")
    cloud = load_cloud(path)
    np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])


def test_load_tolerates_comments_and_blank_lines(tmp_path):
    path = _write(tmp_path, "# header comment\n\n" + GOOD_HEADER + "0 0 0\n# mid comment\n1 2 3\n")
    assert len(load_cloud(path)) == 2


def test_unknown_header_keyword_names_line(tmp_path):
    path = _write(tmp_path, "VERSION 0.7\nBOGUS 1\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert err.value.line_no == 2
    assert "BOGUS" in str(err.value)


def test_wrong_fields_rejected(tmp_path):
    text = GOOD_HEADER.replace("FIELDS x y z", "FIELDS x y z rgb")
    with pytest.raises(ParseError):
        load_cloud(_write(tmp_path, text))


def test_binary_data_rejected(tmp_path):
    text = GOOD_HEADER.replace("DATA ascii", "DATA binary")
    with pytest.raises(ParseError) as err:
        load_cloud(_write(tmp_path, text))
    assert "ascii" in str(err.value)


def test_bad_row_arity_names_line(tmp_path):
    path = _write(tmp_path, GOOD_HEADER + "0 0 0\n1 2\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert err.value.line_no == 11


def test_non_numeric_row_rejected(tmp_path):
    path = _write(tmp_path, GOOD_HEADER + "0 0 0\n1 x 3\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert "non-numeric" in str(err.value)


def test_point_count_mismatch_rejected(tmp_path):
    path = _write(tmp_path, GOOD_HEADER + "0 0 0\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert "POINTS 2" in str(err.value)


def test_too_many_rows_rejected(tmp_path):
    path = _write(tmp_path, GOOD_HEADER + "0 0 0\n1 2 3\n4 5 6\n")
    with pytest.raises(ParseError):
        load_cloud(path)


def test_missing_data_line_rejected(tmp_path):
    path = _write(tmp_path, "VERSION 0.7\nFIELDS x y z\n")
    with pytest.raises(ParseError):
        load_cloud(path)


# ---------------------------------------------------------------------------
# filters


def test_passthrough_inclusive_bounds():
    cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0000001, 0.0, 0.0], [-1.0, 0.5, 0.2]])
    cfg = FilterConfig(x_range=(-1.0, 1.0), y_range=(-1.0, 1.0), z_range=(-1.0, 1.0))
    kept = passthrough(cloud, cfg)
    np.testing.assert_array_equal(kept.points, [[0, 0, 0], [1, 0, 0], [-1, 0.5, 0.2]])


def test_passthrough_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(500, 3))
    cfg = FilterConfig(x_range=(-1.0, 0.5), y_range=(-0.25, 2.0), z_range=(-2.0, 0.0))
    kept = passthrough(make_cloud(pts), cfg).points
    expected = [
        p for p in pts
        if cfg.x_range[0] <= p[0] <= cfg.x_range[1]
        and cfg.y_range[0] <= p[1] <= cfg.y_range[1]
        and cfg.z_range[0] <= p[2] <= cfg.z_range[1]
    ]
    np.testing.assert_array_equal(kept, np.array(expected))


def test_passthrough_preserves_order():
    pts = np.array([[0.3, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
    kept = passthrough(make_cloud(pts), FilterConfig()).points
    np.testing.assert_array_equal(kept, pts)


def test_voxel_two_close_points_merge_to_midpoint():
    cloud = make_cloud([[0.0005, 0.0, 0.0], [0.0015, 0.0, 0.0]])
    out = voxel_downsample(cloud, 0.01)
    np.testing.assert_allclose(out.points, [[0.001, 0.0, 0.0]], atol=1e-15)


def test_voxel_matches_bucket_oracle():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(10_000, 3))
    leaf = 0.02
    out = voxel_downsample(make_cloud(pts), leaf).points

    buckets = {}
    for p in pts:
        key = tuple(np.floor(p / leaf).astype(np.int64))
        buckets.setdefault(key, []).append(p)
    expected = np.array([np.mean(v, axis=0) for _, v in sorted(buckets.items())])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_voxel_output_independent_of_input_order():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1, 1, size=(300, 3))
    a = voxel_downsample(make_cloud(pts), 0.05).points
    b = voxel_downsample(make_cloud(pts[::-1]), 0.05).points
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_voxel_count_non_increasing_in_leaf():
    rng = np.random.default_rng(31)
    cloud = make_cloud(rng.uniform(-0.5, 0.5, size=(2000, 3)))
    sizes = [len(voxel_downsample(cloud, leaf)) for leaf in (0.005, 0.01, 0.02, 0.04)]
    assert sizes == sorted(sizes, reverse=True)


def test_voxel_rejects_bad_leaf():
    with pytest.raises(DomainError):
        voxel_downsample(make_cloud([[0, 0, 0]]), 0.0)
    with pytest.raises(DomainError, match="must be positive"):
        voxel_downsample(make_cloud([[0, 0, 0]]), float("nan"))


@pytest.mark.filterwarnings("error")  # no numpy overflow or cast warning either
@pytest.mark.parametrize("leaf, x", [
    (1e-300, 0.5),           # index 5e299
    (1e-310, 0.5),           # the quotient overflows to inf
    (1.0, 2.0**63),          # the first index past int64
    (1.0, -2.0**63 - 2048),  # the first float index below int64
])
def test_voxel_rejects_leaf_whose_indices_overflow_int64(leaf, x):
    with pytest.raises(DomainError, match="voxel indices overflow int64"):
        voxel_downsample(make_cloud([[0.0, 0.0, 0.0], [x, 0.0, 0.0]]), leaf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [2.0**63 - 1024, -2.0**63])  # the float indices at both ends of int64
def test_voxel_keeps_indices_at_the_ends_of_int64(x):
    pts = [[x, 0.0, 0.0], [0.25, 0.5, 0.0]]
    out = voxel_downsample(make_cloud(pts), 1.0).points
    np.testing.assert_array_equal(out, sorted(pts))


# ---------------------------------------------------------------------------
# plane detection


def grid_plane(n=20, pitch=0.01, z=0.0):
    xs = np.arange(n) * pitch
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])


def test_ransac_exact_plane_recovers_all_points():
    pts = grid_plane(n=20, z=0.5)
    cfg = FilterConfig(min_inlier_count=100)
    patch = ransac_plane(make_cloud(pts), cfg, seed=0)
    assert patch is not None
    assert len(patch.inliers) == len(pts)
    np.testing.assert_allclose(np.abs(patch.normal), [0, 0, 1], atol=1e-9)
    np.testing.assert_allclose(patch.centroid, pts.mean(axis=0), atol=1e-12)


def test_ransac_normal_points_toward_origin():
    pts = grid_plane(n=20, z=0.5)  # plane above origin: normal must point down
    patch = ransac_plane(make_cloud(pts), FilterConfig(min_inlier_count=100), seed=0)
    assert patch.normal[2] < 0
    pts2 = grid_plane(n=20, z=-0.5)
    patch2 = ransac_plane(make_cloud(pts2), FilterConfig(min_inlier_count=100), seed=0)
    assert patch2.normal[2] > 0


def test_ransac_separates_noise_from_plane():
    rng = np.random.default_rng(47)
    plane = grid_plane(n=25)
    plane = plane + rng.normal(0, 0.001, size=plane.shape)
    junk = rng.uniform(-0.5, 0.5, size=(150, 3)) + [0.1, 0.1, 0.3]
    cloud = make_cloud(np.vstack([plane, junk]))
    patch = ransac_plane(cloud, FilterConfig(min_inlier_count=200), seed=3)
    assert patch is not None
    # inliers are within threshold of the refit plane, by construction
    a, b, c, d = patch.plane_coeffs
    assert np.abs(patch.inliers.points @ np.array([a, b, c]) + d).max() <= 0.005 + 1e-12
    assert len(patch.inliers) >= 0.95 * len(plane)


def test_ransac_deterministic_for_fixed_seed():
    rng = np.random.default_rng(53)
    pts = np.vstack([grid_plane(25), rng.uniform(-0.3, 0.3, size=(100, 3))])
    cloud = make_cloud(pts)
    cfg = FilterConfig(min_inlier_count=100)
    a = ransac_plane(cloud, cfg, seed=9)
    b = ransac_plane(cloud, cfg, seed=9)
    np.testing.assert_array_equal(a.inliers.points, b.inliers.points)
    np.testing.assert_array_equal(a.plane_coeffs, b.plane_coeffs)


def test_ransac_returns_none_for_tiny_or_sparse_clouds():
    assert ransac_plane(make_cloud([[0, 0, 0], [1, 0, 0]]), FilterConfig(), seed=0) is None
    # 50 plane points cannot meet a 200-inlier floor
    patch = ransac_plane(make_cloud(grid_plane(n=7)), FilterConfig(min_inlier_count=200), seed=0)
    assert patch is None


def test_ransac_refit_is_least_squares_fixpoint():
    rng = np.random.default_rng(61)
    pts = grid_plane(25) + rng.normal(0, 0.0005, size=(625, 3))
    patch = ransac_plane(make_cloud(pts), FilterConfig(min_inlier_count=200), seed=1)
    inl = patch.inliers.points
    mean = inl.mean(axis=0)
    _, _, vt = np.linalg.svd(inl - mean, full_matrices=False)
    best = vt[2] / np.linalg.norm(vt[2])
    assert min(np.linalg.norm(patch.normal - best), np.linalg.norm(patch.normal + best)) < 1e-9
