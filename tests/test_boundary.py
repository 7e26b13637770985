import tracemalloc

import numpy as np
import pytest

from steelnav import boundary
from steelnav.boundary import directed_hausdorff, estimate_boundary
from steelnav.cloud import PlanarPatch, PointCloud, RigidTransform
from steelnav.errors import DomainError
from steelnav.synth import CloudShape, SyntheticCloudSpec, generate_cloud


def patch_of(points):
    pts = np.asarray(points, dtype=float)
    cloud = PointCloud(points=pts)
    return PlanarPatch(
        inliers=cloud,
        normal=np.array([0.0, 0.0, 1.0]),
        centroid=pts.mean(axis=0),
        plane_coeffs=np.array([0.0, 0.0, 1.0, 0.0]),
    )


def grid_patch(nx, ny, pitch=0.01):
    xs = np.arange(nx) * pitch
    ys = np.arange(ny) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return patch_of(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))


def reference_farthest_pair(points):
    """The earlier k x k x 3 tensor and pair-loop routine, kept as the oracle.

    It visits pairs in lexicographic order and replaces the best only when a
    pair is more than 1e-18 farther, so it returns the first maximum.
    """
    k = len(points)
    diffs = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    best = (-1.0, (0, 0))
    for i in range(k):
        for j in range(i + 1, k):
            dist = d2[i, j]
            if dist > best[0] + 1e-18 or (abs(dist - best[0]) <= 1e-18 and (i, j) < best[1]):
                best = (dist, (i, j))
    i, j = best[1]
    return points[i], points[j]


def row_scan_farthest_pair(points):
    """The unpruned row scan, kept as the oracle of the prune.

    It compares every row with every later one, so it is exact but O(k^2)
    over the whole window; it returns views of the two winning rows.
    """
    best, best_i, best_j = -1.0, 0, 0
    for i in range(len(points) - 1):
        diff = points[i] - points[i + 1:]
        d2 = np.einsum("jk,jk->j", diff, diff)
        j = int(d2.argmax())
        if d2[j] > best:
            best, best_i, best_j = d2[j], i, i + 1 + j
    return points[best_i], points[best_j]


def first_seen_rows(rows):
    """The earlier set-of-tuples dedupe, kept as the oracle of the rim's dedupe.

    A row joins when no equal row came before it; ``-0.0 == 0.0``, so of two
    rows equal up to the sign of a zero the first one seen is kept.
    """
    seen, kept = set(), []
    for p in rows:
        key = (float(p[0]), float(p[1]), float(p[2]))
        if key not in seen:
            seen.add(key)
            kept.append(p)
    return np.array(kept)


def assert_same_rows(got, want):
    """Both returned points are the very rows the oracle returned."""
    assert np.shares_memory(got[0], want[0]) and np.shares_memory(got[1], want[1])


def slab_index(coords, width):
    return np.floor((coords - coords.min()) / width + 0.5).astype(np.int64)


def kernel_pair(points):
    """The kernel's farthest pair of ``points`` taken as one window, as views of its rows."""
    i, j = boundary._farthest_pairs(points, np.array([0]))
    return points[i[0]], points[j[0]]


def kept_rows(points):
    """Ascending indices of the rows the prune keeps of ``points`` taken as one window."""
    return np.flatnonzero(boundary._window_candidates(points, np.array([0])))


def oracle_windows(points, width=0.02):
    """Every slicing window's members: axis-major, window-minor, each in input order."""
    windows = []
    for axis in range(3):
        idx = slab_index(points[:, axis], width)
        windows.extend(points[idx == j] for j in np.unique(idx))
    return windows


def oracle_rim(points, width=0.02):
    """The rim by the oracles, and every row its windows returned, in order."""
    returned = np.array([row for members in oracle_windows(points, width) for row in row_scan_farthest_pair(members)])
    return first_seen_rows(returned), returned


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_three_collinear_points_give_the_two_ends():
    # all three fall in one x-slab band per axis arrangement below
    patch = patch_of([[0.0, 0.0, 0.0], [0.0, 0.004, 0.0], [0.0, 0.009, 0.0]])
    est = estimate_boundary(patch, slice_width=0.02)
    got = set(map(tuple, est.points))
    # farthest pair of the single slab is the two extreme points; the middle
    # point still enters through its own y-axis slab
    assert (0.0, 0.0, 0.0) in got
    assert (0.0, 0.009, 0.0) in got


def test_single_point_slab_contributes_its_point():
    # second point isolated far away along x: its x-slab holds only it
    patch = patch_of([[0.0, 0.0, 0.0], [0.0, 0.001, 0.0], [0.5, 0.0005, 0.0]])
    est = estimate_boundary(patch, slice_width=0.02)
    assert (0.5, 0.0005, 0.0) in set(map(tuple, est.points))


def test_boundary_points_are_cloud_members():
    rng = np.random.default_rng(5)
    patch = patch_of(rng.uniform(-0.2, 0.2, size=(400, 3)) * [1, 1, 0.01])
    est = estimate_boundary(patch, slice_width=0.02)
    members = set(map(tuple, patch.inliers.points))
    assert all(tuple(p) in members for p in est.points)


def test_no_duplicate_boundary_points():
    patch = grid_patch(30, 30)
    est = estimate_boundary(patch, slice_width=0.02)
    assert len(est) == len({tuple(p) for p in est.points})


def test_every_point_lands_in_exactly_one_slab_per_axis():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, size=(500, 3))
    width = 0.07
    for axis in range(3):
        idx = slab_index(pts[:, axis], width)
        # windows are half-open [c_min + (j-0.5)w, c_min + (j+0.5)w)
        lo = pts[:, axis].min() + (idx - 0.5) * width
        hi = pts[:, axis].min() + (idx + 0.5) * width
        assert np.all(pts[:, axis] >= lo - 1e-12)
        assert np.all(pts[:, axis] < hi + 1e-12)


def noisy_level_plate(seed):
    """A level 0.30 x 0.30 m plate centred at the origin: 1 cm pitch, 1 mm noise."""
    return patch_of(generate_cloud(SyntheticCloudSpec(noise_sigma=0.001), seed=seed).points)


def test_rectangle_boundary_hugs_the_rim():
    # 0.30 x 0.30 squares, noise-free and noisy: no boundary point may sit
    # deep in the interior, every selected point is within one slab width of
    # the true rim.  On a noisy plate the lowest and highest inliers lie
    # anywhere inside it.
    plates = [(grid_patch(31, 31), (0.15, 0.15))] + [(noisy_level_plate(seed), (0.0, 0.0)) for seed in range(20)]
    for patch, center in plates:
        est = estimate_boundary(patch, slice_width=0.02)
        d_edge = 0.15 - np.abs(est.points[:, :2] - center).max(axis=1)
        assert d_edge.max() <= 0.02 + 1e-12


@pytest.mark.parametrize("seed", [4, 11])
def test_rim_keeps_each_row_once_in_first_seen_order(seed):
    spec = SyntheticCloudSpec(shape=CloudShape.L_SHAPE, noise_sigma=0.001, outlier_fraction=0.1)
    points = generate_cloud(spec, seed=seed).points
    want, returned = oracle_rim(points)
    assert len(want) < len(returned)
    assert_same_bytes(estimate_boundary(patch_of(points), slice_width=0.02).points, want)


def test_rim_dedupe_takes_signed_zeros_as_equal():
    # a 3 x 3 grid, then two twins equal up to the signs of their zeros, each
    # pair alone in its x-window.  Such a window's farthest pair is its two
    # rows in input order, so the -0.0 twin is seen first and stays, as does
    # the +0.0 one of the second pair.
    grid = grid_patch(3, 3).inliers.points
    twins = np.array([[0.5, 0.0, -0.0], [0.5, 0.0, 0.0], [0.8, 0.0, 0.0], [0.8, -0.0, -0.0]])
    points = np.vstack([grid, twins])
    want, returned = oracle_rim(points)
    same_value = (returned[:, None, :] == returned[None, :, :]).all(axis=2)
    other_sign = (np.signbit(returned)[:, None, :] != np.signbit(returned)[None, :, :]).any(axis=2)
    assert (same_value & other_sign).any() and np.signbit(want).any() and not np.signbit(want[-1]).any()
    assert_same_bytes(estimate_boundary(patch_of(points), slice_width=0.02).points, want)


def unique_first_seen(rows):
    """The earlier ``np.unique`` dedupe, kept as the oracle of ``_first_seen``."""
    return rows[np.sort(np.unique(rows, axis=0, return_index=True)[1])]


@pytest.mark.parametrize("seed", range(6))
def test_first_seen_matches_the_unique_oracle_on_fuzz_rims(seed):
    # rims drawn from a small pool of rows, so rows repeat as they do across
    # axes and windows, with zeros of either sign
    rng = np.random.default_rng(seed)
    for _ in range(40):
        pool = rng.integers(-2, 3, size=(int(rng.integers(1, 12)), 3)) * rng.choice([0.01, 1e-300, 3.0])
        rows = pool[rng.integers(len(pool), size=int(rng.integers(1, 60)))]
        rows = np.where(rng.random(rows.shape) < 0.5, -rows, rows)  # flips the sign of some zeros too
        assert_same_bytes(boundary._first_seen(rows), unique_first_seen(rows))


def test_first_seen_matches_the_unique_oracle_on_rims_of_fuzz_clouds():
    rng = np.random.default_rng(12)
    for family in ["rounded-grid", "signed-zero-twins", "synth"]:
        for _ in range(10):
            points = fuzz_cloud(family, rng)
            returned = oracle_rim(points)[1]
            assert_same_bytes(boundary._first_seen(returned), unique_first_seen(returned))


def test_farthest_pair_matches_brute_force():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(40, 3))
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
    a, b = kernel_pair(pts)
    assert float(np.linalg.norm(a - b)) == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("tilted", [False, True], ids=["level", "tilted"])
@pytest.mark.parametrize("shape", list(CloudShape), ids=lambda s: s.value)
def test_farthest_pair_matches_reference_in_every_window(shape, tilted):
    pose = RigidTransform.from_euler_zyx(0.7, 0.5, -0.15) if tilted else RigidTransform.from_euler_zyx(0.7, 0.0, 0.0)
    dims = {"size_x": 0.30, "size_y": 0.08} if shape is CloudShape.STRIP else {"size_x": 0.20, "size_y": 0.20}
    windows = []
    for seed in (1, 3, 7919):
        spec = SyntheticCloudSpec(shape=shape, pitch=0.01, noise_sigma=0.001, outlier_fraction=0.1, pose=pose, **dims)
        points = generate_cloud(spec, seed=seed).points
        windows += oracle_windows(points)
        assert_same_bytes(estimate_boundary(patch_of(points), slice_width=0.02).points, oracle_rim(points)[0])
    assert len(windows) > 30
    for points in windows:
        a, b = kernel_pair(points)
        ref_a, ref_b = reference_farthest_pair(points)
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        assert_same_rows((a, b), row_scan_farthest_pair(points))


def _circle(k):
    t = np.arange(k) * (2 * np.pi / k)
    return np.column_stack([0.3 + 0.1 * np.cos(t), -0.2 + 0.1 * np.sin(t), np.full(k, 0.05)])


_EQUILATERAL = np.eye(3)  # every pair of rows is sqrt(2) apart, exactly


# keeps_all: True when nothing may be pruned, False when something must be,
# None when the bound may go either way
@pytest.mark.parametrize("points, keeps_all", [
    (_circle(96), True),  # every point ends a diameter: nothing can be pruned
    (_EQUILATERAL, True),
    (np.vstack([_EQUILATERAL, _EQUILATERAL[::-1], _EQUILATERAL]), True),
    (np.array([[0.1, 0.2, 0.3]] * 7), True),
    (np.outer(np.random.default_rng(2).uniform(-1, 1, 50), [0.6, -0.8, 0.0]) + [1.0, 2.0, 0.5], False),
    (np.outer([0.0, 1.0, 0.5, 1.0, 0.0, 0.25], [1.0, 1.0, 1.0]), False),  # collinear, tied ends
    (np.random.default_rng(3).normal(size=(2, 3)), True),
    (np.random.default_rng(4).normal(size=(3, 3)), None),
    (np.random.default_rng(5).normal(size=(40, 3)) * 1e200, True),  # squared distances overflow
    (np.random.default_rng(6).normal(size=(40, 3)) * 1e-170, True),  # squared distances underflow
], ids=["circle", "equilateral", "equilateral-repeated", "duplicates", "collinear", "collinear-ties",
        "k2", "k3", "huge", "tiny"])
def test_prune_keeps_the_rows_the_full_scan_returns(points, keeps_all):
    assert_same_rows(kernel_pair(points), row_scan_farthest_pair(points))
    kept = kept_rows(points)
    assert np.all(np.diff(kept) > 0)
    if keeps_all is not None:
        assert (len(kept) == len(points)) is keeps_all


LEVEL_PLATE = grid_patch(161, 161, pitch=0.005).inliers.points  # a level 0.8 m plate at 5 mm pitch


def test_prune_is_exact_on_a_level_plate():
    windows = oracle_windows(LEVEL_PLATE)
    plate = [w for w in windows if len(w) == 161 * 161]
    assert len(plate) == 1  # the z-window holds the whole plate
    pairs = []
    for points in windows:
        if len(points) < len(plate[0]):
            pairs.append(row_scan_farthest_pair(points))
            assert_same_rows(kernel_pair(points), pairs[-1])
        else:
            # A full scan of the z-window takes seconds.  Its outer ring holds
            # the plate's convex hull, so every farthest pair, and the ring's
            # own scan (in the window's row order) returns the same rows.
            ring = np.flatnonzero((points[:, :2] == points[:, :2].min(axis=0)).any(axis=1)
                                  | (points[:, :2] == points[:, :2].max(axis=0)).any(axis=1))
            assert len(ring) == 4 * 160
            # (grid points are distinct, so each ring row maps back to one row)
            sub = points[ring]
            pairs.append([points[ring[(sub == p).all(axis=1)][0]] for p in row_scan_farthest_pair(sub)])
            assert_same_rows(kernel_pair(points), pairs[-1])
    want = first_seen_rows(np.array([row for pair in pairs for row in pair]))
    assert_same_bytes(estimate_boundary(patch_of(LEVEL_PLATE), slice_width=0.02).points, want)


def test_prune_keeps_under_one_percent_of_a_level_plate():
    points = max(oracle_windows(LEVEL_PLATE), key=len)
    assert len(points) == 25_921
    assert len(kept_rows(points)) < 0.01 * len(points)


def fuzz_cloud(family, rng):
    """One cloud of a fuzz family; ``rng`` draws its size, scale and layout."""
    n = int(rng.integers(1, 300))
    scale = 10 ** rng.uniform(-3, np.log10(50))
    if family == "uniform":
        return rng.uniform(-1, 1, size=(n, 3)) * scale + rng.uniform(-1, 1, 3)
    if family == "normal":
        return rng.normal(size=(n, 3)) * scale * [1.0, 1.0, rng.uniform(0, 1)]
    if family == "rounded-grid":  # exact ties and duplicates everywhere
        return rng.integers(-3, 4, size=(n, 3)) * rng.choice([0.005, 0.01, 0.02]) * [1.0, 1.0, rng.integers(0, 2)]
    if family == "signed-zero-twins":
        grid = rng.integers(-2, 3, size=(n, 3)) * 0.01
        twins = np.vstack([grid, np.where(grid == 0.0, -0.0, grid)])
        return twins[rng.permutation(len(twins))]
    shape = list(CloudShape)[int(rng.integers(len(CloudShape)))]
    pose = RigidTransform.from_euler_zyx(rng.uniform(-np.pi, np.pi), rng.uniform(-0.6, 0.6), rng.uniform(-0.2, 0.2))
    dims = {"size_x": 0.20, "size_y": 0.08} if shape is CloudShape.STRIP else {"size_x": 0.16, "size_y": 0.16}
    spec = SyntheticCloudSpec(shape=shape, hole_size=0.06, noise_sigma=0.001, outlier_fraction=0.1, pose=pose, **dims)
    return generate_cloud(spec, seed=int(rng.integers(2**31))).points


@pytest.mark.parametrize("family", ["uniform", "normal", "rounded-grid", "signed-zero-twins", "synth"])
def test_rim_matches_the_row_scan_oracle_on_fuzz_clouds(family):
    rng = np.random.default_rng(list(map(ord, family)))
    for _ in range(50):
        points = fuzz_cloud(family, rng)
        assert_same_bytes(estimate_boundary(patch_of(points), slice_width=0.02).points, oracle_rim(points)[0])


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_pair_chunks_keep_the_first_maximum_across_their_seams(chunk, monkeypatch):
    # tiny chunks split windows full of exact ties between chunks; a later
    # chunk's tie must not displace an earlier chunk's first maximum
    monkeypatch.setattr(boundary, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for family in ("rounded-grid", "signed-zero-twins") * 10:
        points = fuzz_cloud(family, rng)
        assert_same_bytes(estimate_boundary(patch_of(points), slice_width=0.02).points, oracle_rim(points)[0])


def test_round_window_keeps_every_row_in_bounded_memory():
    # a noise-free 3000-point ring in one window: every row ends a diameter,
    # so the prune keeps all of them and the pair pass sees ~4.5e6 pairs
    ring = _circle(3000)
    assert len(kept_rows(ring)) == len(ring)
    tracemalloc.start()
    try:
        got = kernel_pair(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_same_rows(got, row_scan_farthest_pair(ring))
    assert peak < 3 * 2**20  # the pairs go in chunks: all at once they take several hundred MiB


def test_farthest_pair_tie_on_grid_corners_takes_the_first_diagonal():
    # noise-free 11 x 11 grid: both diagonals tie exactly, and the first
    # maximum in (i, j) order is corner 0 with the opposite corner
    pts = grid_patch(11, 11).inliers.points
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    assert np.count_nonzero(d2 == d2.max()) == 4  # two diagonals, both orders
    a, b = kernel_pair(pts)
    np.testing.assert_array_equal(a, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(b, pts[-1])
    ref_a, ref_b = reference_farthest_pair(pts)
    assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
    # reversing the order puts the other end of the same diagonal first
    a, b = kernel_pair(pts[::-1].copy())
    np.testing.assert_array_equal(a, pts[-1])
    np.testing.assert_array_equal(b, [0.0, 0.0, 0.0])


def test_farthest_pair_ties_pick_the_smallest_index_pair():
    # all duplicates: every pair ties at 0, so rows 0 and 1 win (equal values,
    # so check which rows the returned views point into)
    dup = np.array([[0.1, 0.2, 0.3]] * 5)
    a, b = kernel_pair(dup)
    assert np.shares_memory(a, dup[0]) and np.shares_memory(b, dup[1])
    # square corners in order 0..3: (0, 2) and (1, 3) tie, (0, 2) comes first
    square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    a, b = kernel_pair(square)
    np.testing.assert_array_equal(a, square[0])
    np.testing.assert_array_equal(b, square[2])
    # k = 2: the only pair, in input order
    two = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
    a, b = kernel_pair(two)
    np.testing.assert_array_equal(a, two[0])
    np.testing.assert_array_equal(b, two[1])
    for pts in (dup, square, two):
        got, ref = kernel_pair(pts), reference_farthest_pair(pts)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_farthest_pair_takes_a_pair_one_ulp_farther():
    # a 2 cm square whose corner 3 sits one ulp higher: diagonal (1, 3) is
    # one ulp of d2 longer than (0, 2).  The scan has no slack, so the longer
    # diagonal wins; the reference's 1e-18 slack keeps the first one.
    s = 0.02
    square = np.array([[0.0, 0.0, 0.0], [s, 0.0, 0.0], [s, s, 0.0], [0.0, np.nextafter(s, 1.0), 0.0]])
    a, b = kernel_pair(square)
    np.testing.assert_array_equal(a, square[1])
    np.testing.assert_array_equal(b, square[3])
    ref_a, _ = reference_farthest_pair(square)
    np.testing.assert_array_equal(ref_a, square[0])


def test_level_plate_window_stays_small_in_memory():
    # a level 0.6 m plate at 12 mm pitch: all 2601 points share one z-window
    patch = grid_patch(51, 51, pitch=0.012)
    tracemalloc.start()
    try:
        estimate_boundary(patch, slice_width=0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_estimate_is_deterministic():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-0.2, 0.2, size=(300, 3))
    a = estimate_boundary(patch_of(pts), 0.02).points
    b = estimate_boundary(patch_of(pts), 0.02).points
    np.testing.assert_array_equal(a, b)


def test_empty_patch_rejected():
    patch = PlanarPatch(
        inliers=PointCloud(points=np.zeros((0, 3))),
        normal=np.array([0.0, 0.0, 1.0]),
        centroid=np.zeros(3),
        plane_coeffs=np.array([0.0, 0.0, 1.0, 0.0]),
    )
    with pytest.raises(DomainError):
        estimate_boundary(patch, 0.02)


def test_bad_slice_width_rejected():
    patch = grid_patch(5, 5)
    with pytest.raises(DomainError):
        estimate_boundary(patch, 0.0)
    with pytest.raises(DomainError):
        estimate_boundary(patch, -1.0)


def test_directed_hausdorff_oracle():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.5, 0.0]])
    # farthest a-point from its nearest b-point: (1,0,0) -> sqrt(1.25)
    assert directed_hausdorff(a, b) == pytest.approx(np.sqrt(1.25))
    # not symmetric
    assert directed_hausdorff(b, a) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        directed_hausdorff(np.zeros((0, 3)), b)
