"""Hypothesis properties: every well-formed cloud ends in a decision, and
every cloud file ends in a cloud or a ParseError.

The examples are derandomized and bounded, so the suite stays fast and runs
the same examples every time.  Each example also bounds the peak memory its
call allocates, as ``tracemalloc`` counts it; no wall-clock bound is set,
since the run-to-run speed of a shared machine varies too widely.
"""

import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steelnav.cloud import FilterConfig, PointCloud, RigidTransform, load_cloud
from steelnav.errors import ParseError
from steelnav.switching import SwitchDecision, decide

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Peak bounds with at least 4x headroom over the largest peak of the 150
# examples (about 48 KB for decide and 14 KB for load_cloud with Python 3.11
# and numpy 2.4).
DECIDE_PEAK_BYTES = 256 * 1024
LOAD_PEAK_BYTES = 64 * 1024

unit = st.floats(-1.0, 1.0)
triple = st.tuples(unit, unit, unit)


@st.composite
def clouds(draw) -> PointCloud:
    """Empty, sparse, collinear, coincident or planar clouds from 1e-8 to 1 m
    across, offset within the default pass-through box."""
    kind = draw(st.sampled_from(["free", "line", "coincident", "plane"]))
    if kind == "free":
        pts = np.array(draw(st.lists(triple, max_size=12)), dtype=float).reshape(-1, 3)
    elif kind == "line":
        ts = draw(st.lists(unit, max_size=30))
        pts = np.outer(ts, draw(triple))
    elif kind == "coincident":
        pts = np.tile(draw(triple), (draw(st.integers(0, 30)), 1))
    else:
        xs = np.linspace(-1.0, 1.0, draw(st.integers(1, 12)))
        ys = np.linspace(-1.0, 1.0, draw(st.integers(1, 12)))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        flat = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        yaw, pitch, roll = draw(st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
        pts = RigidTransform.from_euler_zyx(yaw, pitch, roll).apply(flat) / math.sqrt(2.0)
    scale = 10.0 ** draw(st.floats(-8.0, 0.0))
    offset = np.array(draw(st.tuples(*[st.floats(-4.0, 4.0)] * 3)))
    return PointCloud(pts * scale + offset)


@contextmanager
def peak_below(limit: int):
    """Fail unless the block's traced allocations peak below ``limit`` bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak {peak} bytes, bound {limit}"


@PROPERTY
@given(cloud=clouds(), leaf_exp=st.floats(-9.0, -2.0), seed=st.integers(0, 2**32))
def test_every_well_formed_cloud_ends_in_a_decision(cloud, leaf_exp, seed):
    cfg = FilterConfig(voxel_leaf=10.0**leaf_exp, min_inlier_count=3)
    with peak_below(DECIDE_PEAK_BYTES):
        assert isinstance(decide(cloud, filter_cfg=cfg, seed=seed), SwitchDecision)


HEADER_LINES = [
    "# comment", "VERSION 0.7", "FIELDS x y z", "FIELDS x y", "fields X Y Z", "SIZE 4 4 4", "TYPE F F F",
    "TYPE I F F", "COUNT 1 1 1", "WIDTH 2", "HEIGHT 1", "VIEWPOINT 0 0 0 1 0 0 0", "POINTS 2", "POINTS 0",
    "POINTS -1", "POINTS 1_0", "POINTS x", "POINTS", "DATA binary", "BOGUS 1", "", "   ", "café",
]
TOKENS = ["0", "1", "-2.5", "+.5", "1e3", "1E-3", "1e999", "nan", "inf", "-inf", "1_0", "0x1", ".", "-", "e",
          "1.2.3", "#", "é", "\x00"]
SEPARATORS = [" ", "  ", "\t"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def cloud_files(draw) -> bytes:
    """Header lines from valid and broken ones, a DATA line or none, and a
    data block of plain, odd and invalid tokens with mixed line ends."""
    end = draw(st.sampled_from(LINE_ENDS))
    head = draw(st.lists(st.sampled_from(HEADER_LINES), max_size=8))
    if draw(st.booleans()):
        head = ["FIELDS x y z", f"POINTS {draw(st.integers(0, 6))}"] + head
    if draw(st.integers(0, 9)):
        head.append(draw(st.sampled_from(["DATA ascii", "data ASCII", "DATA binary"])))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = draw(st.lists(st.one_of(st.sampled_from(TOKENS), st.floats(allow_nan=False).map(repr)),
                               min_size=draw(st.sampled_from([3, 3, 3, 0, 2, 4])), max_size=4))
        rows.append(draw(st.sampled_from(SEPARATORS)).join(tokens))
    text = end.join(head + rows) + draw(st.sampled_from(["", end]))
    return text.encode("utf-8") + draw(st.sampled_from([b"", b"\xff", b"1 2 3\n"]))


@pytest.fixture(scope="module")
def cloud_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pcd") / "cloud.pcd"


@PROPERTY
@given(data=cloud_files())
def test_every_cloud_file_ends_in_a_cloud_or_a_parse_error(cloud_path, data):
    cloud_path.write_bytes(data)
    with peak_below(LOAD_PEAK_BYTES):
        try:
            cloud = load_cloud(cloud_path)
        except ParseError:
            return
    assert isinstance(cloud, PointCloud) and np.isfinite(cloud.points).all()
