import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from steelnav import cloud as cloud_module
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
from steelnav.synth import SyntheticCloudSpec, generate_cloud


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


@pytest.mark.parametrize("angles", [(math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, -math.inf)])
def test_euler_transform_rejects_non_finite_angles(angles):
    with pytest.raises(DomainError, match="Euler angles must be finite"):
        RigidTransform.from_euler_zyx(*angles)


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


def reference_save_text(cloud):
    """The earlier per-row formatter of save_cloud, kept as the oracle."""
    n = len(cloud)
    lines = [
        "# steel-surface point cloud, ascii x/y/z", "VERSION 0.7", "FIELDS x y z", "SIZE 8 8 8",
        "TYPE F F F", "COUNT 1 1 1", f"WIDTH {n}", "HEIGHT 1", f"POINTS {n}", "DATA ascii",
    ]
    for x, y, z in cloud.points:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [1, 2])
def test_save_bytes_match_the_per_row_formatter(tmp_path, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-12, 12, size=(200, 3))
    pts[:8] = [[-0.0, 1e-05, 5e-324], [1e300, -1e300, 0.0], [0.1, -0.0, 1e-05], [5e-324, -5e-324, 1e300],
               [2.0**-1074, 1.7976931348623157e308, -1e-07], [1e16, 1e15, 123456789.0], [0.5, 2.5, -3.75],
               [1 / 3, -2 / 3, 1e-300]]
    cloud = make_cloud(pts)
    path = tmp_path / "c.pcd"
    save_cloud(path, cloud)
    assert path.read_bytes() == reference_save_text(cloud).encode("ascii")
    back = load_cloud(path).points
    assert back.tobytes() == cloud.points.tobytes()  # -0.0 keeps its sign


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


@pytest.mark.parametrize("text, line_no", [
    (GOOD_HEADER + "1_0 0 0\n0 0 0\n", 10),
    (GOOD_HEADER.replace("POINTS 2", "POINTS 1_000") + "0 0 0\n0 0 0\n", 8),
], ids=["data-row", "points-count"])
def test_underscore_in_numbers_rejected(tmp_path, text, line_no):
    # Python's float and int read 1_0 as 10 and 1_000 as 1000
    with pytest.raises(ParseError) as err:
        load_cloud(_write(tmp_path, text))
    assert err.value.line_no == line_no


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


def _line_parsed(path, monkeypatch):
    """load_cloud with the one-call parse turned off: the line parser alone."""
    with monkeypatch.context() as m:
        m.setattr(cloud_module, "_parse_block", lambda block, expected: None)
        return load_cloud(path)


def _outcome(load):
    try:
        return load().points
    except ParseError as err:
        return err.line_no, str(err)


def assert_loads_like_the_line_parser(path, monkeypatch):
    got = _outcome(lambda: load_cloud(path))
    want = _outcome(lambda: _line_parsed(path, monkeypatch))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes() and got.shape == want.shape
    return got


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_call_parse_matches_the_line_parser(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 3))
    pts[rng.random(size=pts.shape) < 0.05] = -0.0
    path = tmp_path / "c.pcd"
    save_cloud(path, make_cloud(pts))
    got = assert_loads_like_the_line_parser(path, monkeypatch)
    assert got.tobytes() == pts.tobytes()


def test_plain_file_takes_the_one_call_parse(tmp_path, monkeypatch):
    path = tmp_path / "c.pcd"
    save_cloud(path, make_cloud(np.random.default_rng(7).normal(size=(50, 3))))

    def no_line_parser(*args):
        raise AssertionError("the line parser ran on a plain file")

    monkeypatch.setattr(cloud_module, "_parse_rows", no_line_parser)
    assert len(load_cloud(path)) == 50


ROWS = ["0.5 -1 2e-3", "1.25 0 -0.0"]


@pytest.mark.parametrize("body", [
    "1_0 0 0\n" + ROWS[1],
    "\u0661 0 0\n" + ROWS[1],
    "nan 0 0\n" + ROWS[1],
    "1e999 0 0\n" + ROWS[1],
    "0.5\t-1 2e-3\n" + ROWS[1],
    "0.5 -1\x0c2e-3\n" + ROWS[1],
    "0.5 -1\x1c2e-3\n" + ROWS[1],
    "\r\n".join(ROWS) + "\r\n",
    "\r".join(ROWS) + "\r",
    ROWS[0] + "\n# a comment\n" + ROWS[1],
    ROWS[0] + "\n\n" + ROWS[1],
    ROWS[0] + "\n0.5 -1\n",
    ROWS[0] + "\n0.5 -1 2 4\n",
    "\n".join(ROWS + ROWS[:1]),
    ROWS[0],
    "0.5 -1 2e-3 1.25\n0 -0.0 3 4\n",  # 8 values in rows of 4
    "",
], ids=["underscore", "arabic-indic-digit", "nan", "overflow", "tab", "form-feed", "file-separator",
        "crlf", "lone-cr", "comment", "blank-line", "two-tokens", "four-tokens", "too-many-rows",
        "too-few-rows", "all-rows-of-four", "no-rows"])
def test_odd_data_blocks_load_like_the_line_parser(tmp_path, monkeypatch, body):
    path = tmp_path / "odd.pcd"
    path.write_bytes((GOOD_HEADER + body).encode("utf-8"))
    assert_loads_like_the_line_parser(path, monkeypatch)


@pytest.mark.filterwarnings("error")  # loadtxt warns on a block with no data
@pytest.mark.parametrize("body", ["", "\n", " \n\n  "], ids=["empty", "one-newline", "spaces-and-newlines"])
def test_blank_block_goes_to_the_line_parser(tmp_path, body):
    path = _write(tmp_path, GOOD_HEADER.replace("POINTS 2", "POINTS 0") + body)
    assert load_cloud(path).is_empty


@pytest.mark.parametrize("data_line_end", ["\r", "\r\n", "\n"])
def test_block_starts_right_after_a_data_line_of_any_ending(tmp_path, monkeypatch, data_line_end):
    # after a lone CR the next row shares the DATA line's \n-ended chunk
    header = GOOD_HEADER.replace("DATA ascii\n", "DATA ascii" + data_line_end)
    path = tmp_path / "ends.pcd"
    path.write_bytes((header + "\n".join(ROWS) + "\n").encode("ascii"))
    got = assert_loads_like_the_line_parser(path, monkeypatch)
    assert got.tobytes() == np.array([[0.5, -1.0, 2e-3], [1.25, 0.0, -0.0]]).tobytes()


def _load_through_a_pipe(tmp_path, data: bytes):
    """load_cloud's outcome on ``data`` fed through a FIFO, which cannot seek."""
    fifo = tmp_path / "pipe.pcd"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:  # blocks until load_cloud opens the FIFO
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at a parse error
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return _outcome(lambda: load_cloud(fifo))
    finally:
        writer.join(timeout=10)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", ["plate", "lone-cr-data-line", "crlf", "bad-row", "bad-header"])
def test_load_reads_a_pipe_like_a_regular_file(tmp_path, case):
    if case == "plate":  # a block many pipe buffers long
        regular = tmp_path / "plate.pcd"
        save_cloud(regular, make_cloud(np.random.default_rng(3).uniform(-1, 1, size=(20_000, 3))))
        data = regular.read_bytes()
    else:
        text = {
            "lone-cr-data-line": GOOD_HEADER.replace("DATA ascii\n", "DATA ascii\r") + "\n".join(ROWS) + "\n",
            "crlf": (GOOD_HEADER + "\n".join(ROWS) + "\n").replace("\n", "\r\n"),
            "bad-row": GOOD_HEADER + ROWS[0] + "\n0.5 x 1\n",
            "bad-header": GOOD_HEADER.replace("WIDTH", "WIDE"),
        }[case]
        data = text.encode("ascii")
        regular = tmp_path / "regular.pcd"
        regular.write_bytes(data)
    want = _outcome(lambda: load_cloud(regular))
    got = _load_through_a_pipe(tmp_path, data)
    if isinstance(want, tuple):
        assert got == (want[0], want[1].replace(str(regular), str(tmp_path / "pipe.pcd")))
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes() and got.shape == want.shape


def test_load_holds_one_data_block_and_the_rows_at_its_peak(tmp_path):
    # The block is read from the file as one bytes object, checked a slice at
    # a time and freed before the cloud copies the rows.  A second copy of the
    # block anywhere would lift the peak to about 1.4 times this bound's base.
    path = tmp_path / "plate.pcd"
    save_cloud(path, make_cloud(np.random.default_rng(5).uniform(-1, 1, size=(50_000, 3))))
    tracemalloc.start()
    try:
        cloud = load_cloud(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == 50_000
    assert peak < 1.15 * (path.stat().st_size + cloud.points.nbytes)


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


def reference_voxel_downsample(points, leaf):
    """The earlier np.unique(axis=0) + np.add.at routine, kept as the oracle."""
    keys = np.floor(points / leaf).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3), dtype=np.float64)
    np.add.at(sums, inverse, points)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return sums / counts[:, None]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_voxel_bits_match_the_unique_routine(seed):
    rng = np.random.default_rng(seed)
    leaf = 0.1  # about 23 points per voxel, so the order of each sum matters
    pts = rng.uniform(-0.3, 0.3, size=(5000, 3))
    pts[:500] = np.round(pts[:500] / leaf) * leaf  # on voxel faces
    pts[500:1000] = pts[rng.integers(1000, 5000, size=500)]  # exact duplicates
    pts[1000:1100] = -0.0
    pts = pts[rng.permutation(len(pts))]
    got = voxel_downsample(make_cloud(pts), leaf).points
    want = reference_voxel_downsample(pts, leaf)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    for field in ("normal", "centroid", "plane_coeffs"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert a.inliers.points.tobytes() == b.inliers.points.tobytes()


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


@pytest.fixture
def drawn_rows(monkeypatch):
    """Rows of index triples each ransac_plane call draws, one entry per call."""
    calls = []
    make_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = make_rng(seed)
            calls.append(0)

        def integers(self, n, size):
            calls[-1] += size[0]
            return self._rng.integers(n, size=size)

    monkeypatch.setattr(cloud_module.np.random, "default_rng", CountingRng)
    return calls


def test_ransac_stops_early_on_a_clean_plate(drawn_rows):
    pts = grid_plane(n=31)  # a 0.30 m plate at 1 cm pitch
    patch = ransac_plane(make_cloud(pts), FilterConfig(), seed=0)
    assert patch is not None and len(patch.inliers) == len(pts)
    assert drawn_rows[0] <= 64


def test_ransac_draws_the_cap_when_there_is_no_plane(drawn_rows):
    cube = np.random.Generator(np.random.PCG64(5)).uniform(-0.5, 0.5, size=(1000, 3))  # default_rng is patched
    assert ransac_plane(make_cloud(cube), FilterConfig(), seed=0) is None
    assert drawn_rows == [FilterConfig().ransac_iterations]


def test_ransac_one_iteration_draws_one_row(drawn_rows):
    patch = ransac_plane(make_cloud(grid_plane(n=20)), FilterConfig(ransac_iterations=1, min_inlier_count=3), seed=0)
    assert drawn_rows == [1]
    assert patch is not None


def test_ransac_recovers_noisy_plates_over_many_seeds():
    # the set-up of acceptance criterion 6, over ten times its seeds
    spec = SyntheticCloudSpec(size_x=0.30, size_y=0.30, pitch=0.01, noise_sigma=0.001, outlier_fraction=0.2)
    n_surface = 961
    cfg = FilterConfig(ransac_threshold=0.005, min_inlier_count=200)
    for seed in range(200):
        cloud = generate_cloud(spec, seed=seed)
        patch = ransac_plane(cloud, cfg, seed=seed)
        assert patch is not None
        assert math.degrees(math.acos(min(1.0, abs(float(patch.normal[2]))))) <= 2.0
        surface = {p.tobytes() for p in cloud.points[:n_surface]}
        assert sum(p.tobytes() in surface for p in patch.inliers.points) / n_surface >= 0.94


@pytest.mark.parametrize("points, planar", [
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True),
    ([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], False),
    ([[0.1 * i, 0.2 * i, 0.0] for i in range(50)], False),
], ids=["triangle", "three-collinear", "fifty-collinear"])
def test_ransac_degenerate_clouds_end_in_a_plane_or_none(points, planar):
    patch = ransac_plane(make_cloud(points), FilterConfig(min_inlier_count=3), seed=0)
    assert (patch is not None) is planar
    if planar:
        assert len(patch.inliers) == 3


def test_ransac_memory_stays_bounded_on_a_large_plate():
    cloud = make_cloud(grid_plane(n=261, pitch=0.001))  # 68k points
    tracemalloc.start()
    try:
        patch = ransac_plane(cloud, FilterConfig(), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert patch is not None
    assert peak < 8 * 2**20
