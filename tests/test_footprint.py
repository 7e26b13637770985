import math

import numpy as np
import pytest

from steelnav.boundary import estimate_boundary
from steelnav.cloud import FilterConfig, PlanarPatch, PointCloud, RigidTransform, ransac_plane
from steelnav.errors import DegenerateAnchorError, DomainError, check_rotation
from steelnav.footprint import (
    FootGeometry,
    FootPose,
    PlacementReport,
    build_candidate,
    check_placeability,
    closest_points,
    probe_passes,
)
from steelnav.synth import CloudShape, SyntheticCloudSpec, generate_cloud


def patch_of(points):
    pts = np.asarray(points, dtype=float)
    return PlanarPatch(
        inliers=PointCloud(points=pts),
        normal=np.array([0.0, 0.0, 1.0]),
        centroid=pts.mean(axis=0),
        plane_coeffs=np.array([0.0, 0.0, 1.0, 0.0]),
    )


def place_on(patch):
    rim = estimate_boundary(patch, 0.02)
    return check_placeability(rim.points, patch.centroid, patch.normal, FootGeometry())


def square_patch(size=0.30, pitch=0.01):
    n = int(round(size / pitch)) + 1
    xs = -size / 2 + pitch * np.arange(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return patch_of(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))


# ---------------------------------------------------------------------------
# closest_points


def closest_points_lexsort(points, query, count):
    """The earlier four-key closest_points, kept as the oracle of the tie rule
    and of the test oracles below: distance, then x, y, z, then input order."""
    pts = np.asarray(points, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d = np.linalg.norm(pts - q, axis=1)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], d))
    return pts[order[:count]]


def fuzzed_rim(rng):
    """A small point set on a coarse lattice, so exact distance ties and
    repeated rows are common, with some zeros negated to -0.0."""
    pts = rng.integers(-3, 4, size=(int(rng.integers(1, 40)), 3)).astype(np.float64) * 0.25
    if rng.random() < 0.5:
        pts[:, 2] = 0.0
    pts[rng.random(pts.shape) < 0.3] *= -1.0
    if rng.random() < 0.5:
        pts = np.vstack([pts, pts[rng.integers(len(pts), size=len(pts) // 2 + 1)]])
    return pts


def test_closest_points_matches_the_four_key_lexsort_byte_for_byte():
    rng = np.random.default_rng(2026)
    for _ in range(500):
        pts = fuzzed_rim(rng)
        query = rng.integers(-2, 3, size=3) * 0.25 * rng.choice([1.0, -1.0], size=3)
        count = int(rng.integers(1, len(pts) + 1))
        assert closest_points(pts, query, count).tobytes() == closest_points_lexsort(pts, query, count).tobytes()


def test_closest_points_full_set_is_distance_sorted():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    q = np.array([0.1, 0.2, 0.3])
    out = closest_points(pts, q, 20)
    d = np.linalg.norm(out - q, axis=1)
    assert np.all(np.diff(d) >= -1e-15)


def test_closest_points_query_member_is_first():
    pts = np.array([[1.0, 0, 0], [5.0, 0, 0], [2.0, 0, 0]])
    out = closest_points(pts, [1.0, 0, 0], 1)
    np.testing.assert_array_equal(out, [[1.0, 0, 0]])


def test_closest_points_matches_full_sort_oracle():
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(200, 3))
    q = rng.normal(size=3)
    out = closest_points(pts, q, 7)
    order = np.argsort(np.linalg.norm(pts - q, axis=1), kind="stable")
    expected = pts[order[:7]]
    np.testing.assert_allclose(np.linalg.norm(out - q, axis=1),
                               np.linalg.norm(expected - q, axis=1), atol=1e-12)


def test_closest_points_ties_break_lexicographically():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
    out = closest_points(pts, [0.0, 0, 0], 2)
    np.testing.assert_array_equal(out[0], [-1.0, 0, 0])


def test_closest_points_too_few_rejected():
    with pytest.raises(DomainError):
        closest_points(np.zeros((2, 3)), [0, 0, 0], 3)


# ---------------------------------------------------------------------------
# build_candidate


REF_GEOM = FootGeometry(width=0.2, length=0.5, tolerance=0.02, candidate_count=5, neighbor_count=3)


def test_candidate_frozen_example():
    cand = build_candidate([1.0, 0, 0], [0.0, 0, 0], [0.0, 0, 1.0], REF_GEOM)
    np.testing.assert_allclose(cand.frame[:, 0], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(cand.frame[:, 1], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(cand.frame[:, 2], [0, 0, 1], atol=1e-12)
    expected_corners = np.array([
        [1.0, 0.1, 0.0],
        [1.0, -0.1, 0.0],
        [0.5, -0.1, 0.0],
        [0.5, 0.1, 0.0],
    ])
    np.testing.assert_allclose(cand.corners, expected_corners, atol=1e-12)
    mids = set(map(tuple, np.round(cand.midpoints, 12)))
    for expected in [(1.0, 0.0, 0.0), (0.75, -0.1, 0.0), (0.5, 0.0, 0.0), (0.75, 0.1, 0.0)]:
        assert expected in mids


def test_candidate_width_scales_only_lateral_offsets():
    narrow = build_candidate([1.0, 0, 0], [0, 0, 0], [0, 0, 1.0], REF_GEOM)
    wide_geom = FootGeometry(width=0.4, length=0.5, tolerance=0.02)
    wide = build_candidate([1.0, 0, 0], [0, 0, 0], [0, 0, 1.0], wide_geom)
    np.testing.assert_allclose(wide.corners[:, 1], 2 * narrow.corners[:, 1], atol=1e-12)
    np.testing.assert_allclose(wide.corners[:, 0], narrow.corners[:, 0], atol=1e-12)


def test_candidate_edge_lengths_reproduce_foot_dimensions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        anchor = rng.normal(size=3)
        center = rng.normal(size=3)
        if np.linalg.norm(anchor - center) < 1e-6:
            continue
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        geom = FootGeometry(width=0.11, length=0.23)
        try:
            cand = build_candidate(anchor, center, n, geom)
        except DegenerateAnchorError:
            continue
        c = cand.corners
        widths = [np.linalg.norm(c[0] - c[1]), np.linalg.norm(c[2] - c[3])]
        lengths = [np.linalg.norm(c[1] - c[2]), np.linalg.norm(c[3] - c[0])]
        np.testing.assert_allclose(widths, geom.width, atol=1e-9)
        np.testing.assert_allclose(lengths, geom.length, atol=1e-9)


def test_candidate_rotation_equivariance():
    q = RigidTransform.from_euler_zyx(0.7, -0.3, 1.2, translation=(0.5, -1.0, 2.0))
    anchor = np.array([1.0, 0.2, 0.0])
    center = np.array([0.1, -0.1, 0.0])
    normal = np.array([0.0, 0.0, 1.0])
    plain = build_candidate(anchor, center, normal, REF_GEOM)
    moved = build_candidate(q.apply(anchor), q.apply(center), q.rotation @ normal, REF_GEOM)
    np.testing.assert_allclose(moved.corners, q.apply(plain.corners), atol=1e-9)
    np.testing.assert_allclose(moved.midpoints, q.apply(plain.midpoints), atol=1e-9)


def test_candidate_frame_is_orthonormal_even_for_off_plane_anchor():
    # anchor displaced off the plane: the outward axis must still be exactly
    # perpendicular to the normal
    cand = build_candidate([1.0, 0.0, 0.004], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], REF_GEOM)
    f = cand.frame
    np.testing.assert_allclose(f.T @ f, np.eye(3), atol=1e-12)
    assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_anchor_rejected():
    with pytest.raises(DegenerateAnchorError):
        build_candidate([0.0, 0, 0], [0.0, 0, 0], [0, 0, 1.0], REF_GEOM)
    # anchor straight along the normal: projection vanishes
    with pytest.raises(DegenerateAnchorError):
        build_candidate([0.0, 0, 0.5], [0.0, 0, 0], [0, 0, 1.0], REF_GEOM)


# ---------------------------------------------------------------------------
# probe test and placement


def test_probe_inside_when_closer_than_local_boundary():
    ring = np.array([[np.cos(a), np.sin(a), 0.0] for a in np.linspace(0, 2 * np.pi, 60, endpoint=False)])
    geom = FootGeometry()
    assert probe_passes([0.2, 0.0, 0.0], [0.0, 0.0, 0.0], ring, geom)
    assert not probe_passes([1.3, 0.0, 0.0], [0.0, 0.0, 0.0], ring, geom)


def test_probe_relative_tolerance_band():
    ring = np.array([[np.cos(a), np.sin(a), 0.0] for a in np.linspace(0, 2 * np.pi, 360, endpoint=False)])
    geom = FootGeometry(tolerance=0.02)
    # just past the rim but within 2% relative overshoot
    assert probe_passes([1.015, 0.0, 0.0], [0.0, 0.0, 0.0], ring, geom)
    assert not probe_passes([1.03, 0.0, 0.0], [0.0, 0.0, 0.0], ring, geom)


def probe_passes_one(probe, center, boundary_points, geometry):
    """The earlier one-probe interior test, kept as the oracle of the array test."""
    p = np.asarray(probe, dtype=np.float64).reshape(3)
    c = np.asarray(center, dtype=np.float64).reshape(3)
    d_r = float(np.linalg.norm(p - c))
    neighbors = closest_points_lexsort(boundary_points, p, geometry.neighbor_count)
    d_q = float(np.linalg.norm(neighbors - c, axis=1).mean())
    if d_r < d_q:
        return True
    return d_r > 0 and (d_r - d_q) / d_r < geometry.tolerance


def grid_rim(n=9, pitch=0.05):
    # grid points: many probes sit at exactly equal distances from several
    # rim points whose centre distances differ
    xs = pitch * (np.arange(n) - n // 2)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


@pytest.mark.parametrize("rim, probes, center", [
    (np.random.default_rng(23).normal(size=(120, 3)) * [0.2, 0.2, 0.002],
     np.random.default_rng(24).normal(size=(64, 3)) * [0.2, 0.2, 0.002], [0.01, -0.02, 0.0]),
    (grid_rim(), grid_rim()[::3] + [0.025, 0.0, 0.0], [0.0, 0.0, 0.0]),
    (grid_rim()[np.random.default_rng(25).permutation(81)], grid_rim()[1::2] * 1.01, [0.05, 0.0, 0.0]),
    (np.array([[1.5, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 2.0, 0.0], [3.0, 3.0, 0.0]]),
     np.array([[1.0, 0.0, 0.0]]), [0.0, 0.0, 0.0]),
    (np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.3, 0.3, 0.0]]), np.zeros((2, 3)), [0.0, 0.0, 0.0]),
], ids=["random", "grid-ties", "grid-ties-shuffled", "tie-decides", "probe-at-center"])
@pytest.mark.parametrize("neighbors, tolerance", [(1, 0.02), (3, 0.02), (4, 0.3)])
def test_probe_passes_matches_the_one_probe_test(rim, probes, center, neighbors, tolerance):
    geom = FootGeometry(tolerance=tolerance, neighbor_count=neighbors)
    got = probe_passes(probes, center, rim, geom)
    assert got.shape == (len(probes),)
    assert got.tolist() == [probe_passes_one(p, center, rim, geom) for p in probes]


def test_probe_passes_rejects_a_boundary_too_small_or_misshapen():
    with pytest.raises(DomainError):
        probe_passes([[0.0, 0.0, 0.0]], [0.0, 0.0, 0.0], np.eye(3)[:2], FootGeometry(neighbor_count=3))
    with pytest.raises(DomainError):
        probe_passes([[0.0, 0.0, 0.0]], [0.0, 0.0, 0.0], np.ones((4, 2)), FootGeometry(neighbor_count=1))


def test_exact_distance_tie_goes_to_the_lexicographically_first_rim_point():
    # (0.5, 0, 0) and (1.5, 0, 0) are both exactly 0.5 from the probe: the
    # first in (x, y, z) order sits 0.5 from the centre, so the probe at 1.0
    # fails; the other would let it pass.  Input order must not matter.
    geom = FootGeometry(neighbor_count=1)
    rim = np.array([[1.5, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 2.0, 0.0]])
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
        assert probe_passes([[1.0, 0.0, 0.0]], [0.0, 0.0, 0.0], rim[order], geom).tolist() == [False]
    assert probe_passes([[1.0, 0.0, 0.0]], [0.0, 0.0, 0.0], rim[[0, 2]], geom).tolist() == [True]


def test_square_accepts_foot():
    patch = square_patch()
    report = place_on(patch)
    assert report.placeable
    assert report.pose is not None
    assert report.accepted_anchor is not None


def test_strip_rejects_foot():
    pitch = 0.01
    nx, ny = 41, 6
    xs = np.arange(nx) * pitch
    ys = np.arange(ny) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    patch = patch_of(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
    report = place_on(patch)
    assert not report.placeable
    assert report.pose is None
    assert report.candidates_tried == 5


def test_accepted_pose_lies_on_patch_plane():
    patch = square_patch()
    report = place_on(patch)
    assert abs(report.pose.position[2]) <= 0.005


def test_accepted_orientation_normal_column_matches_patch():
    patch = square_patch()
    report = place_on(patch)
    np.testing.assert_allclose(report.pose.orientation[:, 2], patch.normal, atol=1e-12)
    assert np.linalg.det(report.pose.orientation) == pytest.approx(1.0, abs=1e-9)


def test_accepted_probes_inside_dilated_square():
    # soundness against the exact polygon: accepted probes stay within the
    # true patch dilated by the slab width plus the relative tolerance slack
    patch = square_patch()
    geom = FootGeometry()
    est = estimate_boundary(patch, 0.02)
    report = check_placeability(est.points, patch.centroid, patch.normal, geom)
    assert report.placeable
    cand = build_candidate(report.accepted_anchor, patch.centroid, patch.normal, geom)
    for p in cand.probes:
        d_r = np.linalg.norm(p - patch.centroid)
        slack = 0.02 + geom.tolerance * d_r
        assert np.abs(p[:2]).max() <= 0.15 + slack + 1e-9


def test_smaller_foot_accepted_at_same_anchor():
    patch = square_patch()
    geom = FootGeometry(width=0.10, length=0.15)
    est = estimate_boundary(patch, 0.02)
    report = check_placeability(est.points, patch.centroid, patch.normal, geom)
    assert report.placeable
    smaller = FootGeometry(width=0.08, length=0.12)
    cand = build_candidate(report.accepted_anchor, patch.centroid, patch.normal, smaller)
    assert all(probe_passes(p, patch.centroid, est.points, smaller) for p in cand.probes)


def test_placement_equivariant_under_rigid_motion():
    # generic boundary with no exact anchor-distance ties: candidate order,
    # and hence the pose, must transform with the inputs.  (An exactly
    # symmetric patch can reorder tied anchors, which is the documented
    # price of deterministic tie-breaking.)
    rng = np.random.default_rng(97)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=48))
    radii = rng.uniform(0.25, 0.34, size=48)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles), np.zeros(48)])
    center = np.zeros(3)
    normal = np.array([0.0, 0.0, 1.0])
    geom = FootGeometry()
    plain = check_placeability(ring, center, normal, geom)
    assert plain.placeable
    q = RigidTransform.from_euler_zyx(1.1, 0.0, 0.0, translation=(3.0, -1.0, 0.7))
    moved = check_placeability(q.apply(ring), q.apply(center), q.rotation @ normal, geom)
    assert moved.placeable
    np.testing.assert_allclose(moved.pose.position, q.apply(plain.pose.position), atol=1e-9)
    np.testing.assert_allclose(moved.pose.orientation, q.rotation @ plain.pose.orientation, atol=1e-9)


def test_placement_deterministic():
    patch = square_patch()
    est = estimate_boundary(patch, 0.02)
    a = check_placeability(est.points, patch.centroid, patch.normal, FootGeometry())
    b = check_placeability(est.points, patch.centroid, patch.normal, FootGeometry())
    np.testing.assert_array_equal(a.pose.position, b.pose.position)
    assert a.candidates_tried == b.candidates_tried


def test_boundary_too_small_is_domain_error_not_rejection():
    pts = np.array([[0.1, 0, 0], [0, 0.1, 0], [-0.1, 0, 0]])
    with pytest.raises(DomainError):
        check_placeability(pts, [0.0, 0, 0], [0, 0, 1.0], FootGeometry(candidate_count=5))


def test_pose_position_rule():
    # pose = probe centroid shifted a quarter length inward along the
    # outward axis, checked on the frozen axis-aligned candidate
    geom = FootGeometry(width=0.2, length=0.4, tolerance=0.5, candidate_count=1, neighbor_count=1)
    ring = np.array([[np.cos(a), np.sin(a), 0.0] for a in np.linspace(0, 2 * np.pi, 16, endpoint=False)])
    report = check_placeability(ring, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], geom)
    assert report.placeable
    anchor = report.accepted_anchor
    cand = build_candidate(anchor, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], geom)
    expected = cand.probes.mean(axis=0) - 0.25 * geom.length * cand.frame[:, 0]
    np.testing.assert_allclose(report.pose.position, expected, atol=1e-12)


def test_report_invariants_enforced():
    with pytest.raises(DomainError):
        PlacementReport(placeable=True, pose=None, candidates_tried=1, accepted_anchor=None)
    pose = FootPose(position=np.zeros(3), orientation=np.eye(3))
    with pytest.raises(DomainError):
        PlacementReport(placeable=False, pose=pose, candidates_tried=1, accepted_anchor=None)


def test_foot_geometry_validation():
    with pytest.raises(DomainError):
        FootGeometry(width=0.0)
    with pytest.raises(DomainError):
        FootGeometry(tolerance=0.0)
    with pytest.raises(DomainError):
        FootGeometry(candidate_count=0)


# ---------------------------------------------------------------------------
# placement against the per-candidate oracle


def reference_placement(boundary_points, center, normal, geometry):
    """The earlier per-candidate placement, kept as the oracle of check_placeability.

    The anchors come from :func:`closest_points_lexsort`; each candidate is
    built with ``np.cross`` and ``np.roll`` and validated, and its probes are
    judged one at a time by :func:`probe_passes_one`.
    Returns (placeable, candidates_tried, accepted anchor, pose position,
    pose orientation), the last three None when nothing fits.
    """
    pts = np.asarray(boundary_points, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64).reshape(3)
    anchors = closest_points_lexsort(pts, c, geometry.candidate_count)
    tried = 0
    for a in anchors:
        tried += 1
        e_z = np.asarray(normal, dtype=np.float64).reshape(3)
        e_z = e_z / np.linalg.norm(e_z)
        delta = a - c
        if np.linalg.norm(delta) < 1e-9:
            continue
        in_plane = delta - (delta @ e_z) * e_z
        norm = np.linalg.norm(in_plane)
        if norm < 1e-9:
            continue
        e_x = in_plane / norm
        e_y = np.cross(e_z, e_x)
        frame = np.column_stack([e_x, e_y, e_z])
        half_w = 0.5 * geometry.width
        r1 = a + half_w * e_y
        r2 = a - half_w * e_y
        corners = np.array([r1, r2, r2 - geometry.length * e_x, r1 - geometry.length * e_x])
        probes = np.vstack([corners, 0.5 * (corners + np.roll(corners, -1, axis=0))])
        check_rotation("candidate frame", frame)
        inward = 0.25 * geometry.length * frame[:, 0]
        if all(probe_passes_one(p, c, pts, geometry) for p in probes - inward):
            return True, tried, a, probes.mean(axis=0) - inward, frame
    return False, tried, None, None, None


def assert_places_like_the_oracle(boundary_points, center, normal, geometry):
    placeable, tried, anchor, position, orientation = reference_placement(boundary_points, center, normal, geometry)
    report = check_placeability(boundary_points, center, normal, geometry)
    assert (report.placeable, report.candidates_tried) == (placeable, tried)
    if placeable:
        assert report.accepted_anchor.tobytes() == anchor.tobytes()
        assert report.pose.position.tobytes() == position.tobytes()
        assert report.pose.orientation.tobytes() == np.ascontiguousarray(orientation).tobytes()
    else:
        assert report.accepted_anchor is None and report.pose is None
    return report


SWEEP_SHAPES = [
    (CloudShape.RECTANGLE, dict(size_x=0.32, size_y=0.32)),
    (CloudShape.STRIP, dict(size_x=0.46, size_y=0.30)),
    (CloudShape.L_SHAPE, dict(size_x=0.40, size_y=0.40)),
    (CloudShape.RECTANGLE_WITH_HOLE, dict(size_x=0.36, size_y=0.36, hole_size=0.10)),
    (CloudShape.RECTANGLE_WITH_HOLE, dict(size_x=0.50, size_y=0.50, hole_size=0.38)),
    (CloudShape.CIRCLE, dict(size_x=0.38, size_y=0.38)),
    (CloudShape.RECTANGLE, dict(size_x=1.20, size_y=0.07)),
    (CloudShape.L_SHAPE, dict(size_x=1.20, size_y=0.08)),
    (CloudShape.CIRCLE, dict(size_x=0.12, size_y=0.12)),
]
ORACLE_GEOMETRIES = [FootGeometry(), FootGeometry(width=0.08, length=0.30, tolerance=0.3, candidate_count=9, neighbor_count=1)]


@pytest.mark.parametrize("shape, dims", SWEEP_SHAPES, ids=[f"{s.value}-{d['size_x']}" for s, d in SWEEP_SHAPES])
def test_placement_matches_the_per_candidate_oracle_over_yaws(shape, dims):
    for step in range(0, 24, 5):
        pose = RigidTransform.from_euler_zyx(step * math.pi / 12, 0.2 * (step % 2), 0.0, translation=(0.1, 0.0, 0.6))
        spec = SyntheticCloudSpec(shape=shape, noise_sigma=0.001, outlier_fraction=0.1, pose=pose, **dims)
        patch = ransac_plane(generate_cloud(spec, seed=step), FilterConfig(min_inlier_count=50), seed=1)
        rim = estimate_boundary(patch, 0.02).points
        for geometry in ORACLE_GEOMETRIES:
            assert_places_like_the_oracle(rim, patch.centroid, patch.normal, geometry)


@pytest.mark.parametrize("rim, center", [
    (grid_rim(), [0.0, 0.0, 0.0]),
    (grid_rim()[np.random.default_rng(26).permutation(81)], [0.025, 0.025, 0.0]),
    (grid_rim(7, 0.1)[::-1], [0.05, 0.0, 0.0]),
    (grid_rim(5, 0.05)[::-1], [0.0, 0.0, 0.0]),
    (grid_rim(5, 0.05)[::-1], [0.025, 0.0, 0.0]),
    (np.array([[np.cos(a), np.sin(a), 0.0] for a in np.linspace(0, 2 * np.pi, 24, endpoint=False)]) * 0.3,
     [0.0, 0.0, 0.0]),
], ids=["grid", "grid-shuffled-cell-centre", "coarse-grid-reversed", "small-grid-reversed",
        "small-grid-reversed-off-centre", "ring-all-tied"])
@pytest.mark.parametrize("geometry", ORACLE_GEOMETRIES + [
    FootGeometry(width=0.5, length=0.6),
    FootGeometry(width=0.1, length=0.1, neighbor_count=1),
    FootGeometry(width=0.1, length=0.1, tolerance=0.3, neighbor_count=1),
], ids=["default", "long", "wide", "short", "short-slack"])
def test_placement_matches_the_oracle_on_distance_ties(rim, center, geometry):
    # on the small reversed grid the short feet's probes sit exactly between
    # rim points at different centre distances: the (x, y, z) order of the
    # tied points decides the verdict
    assert_places_like_the_oracle(rim, center, [0.0, 0.0, 1.0], geometry)


@pytest.mark.parametrize("normal", [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.0, 0.0, -2.0]])
def test_placement_skips_anchors_at_the_centre_and_on_the_normal(normal):
    # the two rim points nearest the centre leave the outward axis undefined:
    # they count as tried, and a foot short enough to stay clear of them is
    # placed at the third anchor; with only those two as candidates, none is
    n = np.asarray(normal) / np.linalg.norm(normal)
    center = np.array([0.01, -0.02, 0.0])
    angles = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    ring = center + 0.3 * np.column_stack([np.cos(angles), np.sin(angles), np.zeros(40)])
    ring -= ((ring - center) @ n)[:, None] * n  # into the plane through the centre
    rim = np.vstack([ring, center, center + 0.004 * n])
    report = assert_places_like_the_oracle(rim, center, normal, FootGeometry(width=0.05, length=0.05))
    assert report.placeable and report.candidates_tried == 3
    none = assert_places_like_the_oracle(rim, center, normal, FootGeometry(candidate_count=2))
    assert not none.placeable and none.candidates_tried == 2


def _nan_rows(points):
    out = np.array(points, dtype=float)
    out[::2] = np.nan
    return out


def _square_rim():
    patch = square_patch()
    return estimate_boundary(patch, 0.02).points, patch.centroid, patch.normal


@pytest.mark.filterwarnings("error")  # a zero normal once divided by zero on its way to "does not fit"
@pytest.mark.parametrize("call", [
    lambda rim, c, n: check_placeability(_nan_rows(rim), c, n),
    lambda rim, c, n: check_placeability(rim, [np.nan, 0.0, 0.0], n),
    lambda rim, c, n: check_placeability(rim, c, [0.0, np.inf, 1.0]),
    lambda rim, c, n: check_placeability(rim, c, [0.0, 0.0, 0.0]),
    lambda rim, c, n: closest_points(_nan_rows(rim), c, 3),
    lambda rim, c, n: closest_points(rim, [np.nan, 0.0, 0.0], 3),
    lambda rim, c, n: probe_passes(rim[:4], c, _nan_rows(rim), FootGeometry()),
    lambda rim, c, n: probe_passes(_nan_rows(rim[:4]), c, rim, FootGeometry()),
    lambda rim, c, n: build_candidate(rim[0], c, [0.0, 0.0, 0.0], FootGeometry()),
    lambda rim, c, n: build_candidate([np.nan, 0.0, 0.0], c, n, FootGeometry()),
], ids=["place-nan-rim", "place-nan-center", "place-inf-normal", "place-zero-normal", "closest-nan-points",
        "closest-nan-query", "probe-nan-rim", "probe-nan-probe", "candidate-zero-normal", "candidate-nan-anchor"])
def test_non_finite_points_and_a_zero_normal_are_domain_errors(call):
    # on the 0.30 m square's rim, NaN rows once read "fits" or were skipped
    rim, center, normal = _square_rim()
    assert check_placeability(rim, center, normal).placeable
    with pytest.raises(DomainError):
        call(rim, center, normal)
