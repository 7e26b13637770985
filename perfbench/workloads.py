"""Seeded inputs, operations and output checks for the three workloads.

Every input is generated from the workload seed, and the program under test
sees only the generated clouds, files and simulator settings.  The expected
result of every frame comes from its design (a plane is there or not, the
foot fits or not, the height matches or is offset), never from recorded
program output.  Simulator jobs are checked against properties their
settings guarantee: the route is reached, the gaps settle, the jump state
machine accepts exactly the events its phase order allows.

Each operation offers two ways to run.  ``run()`` calls the public API the
way a user does and is what the untraced run times.  ``staged(rec, ctx)``
makes the same calls one layer at a time with a span around each, and
leaves input-derived counts in ``ctx`` for the per-layer report.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from steelnav import cli
from steelnav.actuate import (
    CANONICAL_JUMP_SEQUENCE,
    SETTLE_TOLERANCE_MM,
    WHEELED_PHASES,
    InchwormPhase,
    JumpEvent,
    JumpPlanConfig,
    MagnetMode,
    MagnetPlant,
    initial_jump_state,
    jump_trace_to_jsonl,
    magnet_trace_to_csv,
    plan_jump_trajectory,
    run_jump_sequence,
    simulate_magnet,
    trajectory_to_csv,
)
from steelnav.boundary import estimate_boundary
from steelnav.cloud import RigidTransform, load_cloud, passthrough, ransac_plane, save_cloud, voxel_downsample
from steelnav.config import RunConfig, load_config
from steelnav.drive import Pose2D, simulate_track, trace_to_csv
from steelnav.footprint import check_placeability
from steelnav.switching import (
    StageDiagnostics,
    SwitchDecision,
    decide,
    decision_to_json,
    height_availability,
    plane_availability,
    switching_function,
)
from steelnav.synth import CloudShape, SyntheticCloudSpec, generate_cloud, surface_grid

from harness import OpFailure

NOISE_SIGMA_M = 0.001
OUTLIER_FRACTION = 0.10
HEIGHT_OFFSET_M = 0.05  # five times the default height tolerance
TILT_RANGE_RAD = (0.5, 0.8)

# Foot 0.10 x 0.15 m.  The placement test hangs the foot flush with the
# boundary point nearest the centroid and gives its probes 2 % of slack, so
# on noisy frames a foot with only a few cm to spare can read "does not
# fit".  "Fits" shapes therefore keep their outer edges at least 0.15 m from
# the centroid, as the 0.30 m square of the acceptance criteria does.  The
# L's nearest boundary is its inner corner at any size, and the seed code
# misjudges some of its frames.  "Narrow" shapes are too small for the foot
# whichever way it is turned.
SMALL_FITS = {
    CloudShape.RECTANGLE: dict(size_x=0.32, size_y=0.32),
    CloudShape.STRIP: dict(size_x=0.46, size_y=0.30),
    CloudShape.L_SHAPE: dict(size_x=0.40, size_y=0.40),
    CloudShape.RECTANGLE_WITH_HOLE: dict(size_x=0.36, size_y=0.36, hole_size=0.10),
    CloudShape.CIRCLE: dict(size_x=0.38, size_y=0.38),
}
SMALL_NARROW = {
    CloudShape.RECTANGLE: dict(size_x=1.20, size_y=0.07),
    CloudShape.STRIP: dict(size_x=1.40, size_y=0.06),
    CloudShape.L_SHAPE: dict(size_x=1.20, size_y=0.08),
    CloudShape.RECTANGLE_WITH_HOLE: dict(size_x=1.20, size_y=0.08, hole_size=0.04),
    # A disc narrower than the foot holds fewer grid points than the plane
    # detector's minimum, so its design has no plane at all.
    CloudShape.CIRCLE: dict(size_x=0.12, size_y=0.12),
}
SMALL_PITCH_M = 0.01
SMALL_VARIANTS = ("level", "tilted", "offset", "narrow")
# Seeded draws of every shape x variant cell per pass: three draws keep the
# share of misjudged L frames in a run close to its mean.
SMALL_REALIZATIONS = 3

# Raw-size ladder of about 15k, 45k and 180k points at 2 mm pitch (10 %
# outliers included); the 5 mm voxel filter merges about three into one.
DENSE_SIDES_M = (0.232, 0.40, 0.80)
DENSE_PITCH_M = 0.002
DENSE_TILT_RAD = 0.6

TINY = {
    "small_shapes": (CloudShape.RECTANGLE,),
    "small_realizations": 1,
    "dense_sides": (0.20, 0.26, 0.32),
    "dense_pitch": 0.01,
    "route_legs": 2,
    "jobs_per_kind": 1,
}


@dataclass(frozen=True)
class Expected:
    """Designed outcome of one frame."""

    plane: bool
    fits: bool
    height: bool

    @property
    def mobile(self) -> bool:
        return self.plane and self.fits and self.height

    def matches(self, text: str) -> bool:
        d = json.loads(text)
        return (
            d["s_pa"] is self.plane
            and d["s_am"] is (self.plane and self.fits)
            and d["s_hc"] is (self.plane and self.height)
            and d["s"] is self.mobile
            and d["transformation"] == ("Mobile" if self.mobile else "InchWorm")
            and (d["pose"] is not None) is d["s_am"]
        )


@dataclass(frozen=True)
class Outcome:
    """What an operation returned: the text compared byte for byte between
    the traced and untraced paths, plus what the output check needs."""

    text: str
    detail: object = None


def _posed_spec(shape, dims, pitch, yaw, pitch_angle, roll, raise_m) -> SyntheticCloudSpec:
    """Spec whose designed surface centroid sits ``raise_m`` above base height."""
    rot = RigidTransform.from_euler_zyx(yaw, pitch_angle, roll)
    flat = SyntheticCloudSpec(shape=shape, pitch=pitch, **dims)
    centre_z = float(rot.rotation[2] @ surface_grid(flat).mean(axis=0))
    pose = RigidTransform(rotation=rot.rotation, translation=(0.0, 0.0, raise_m - centre_z))
    return SyntheticCloudSpec(
        shape=shape, pitch=pitch, noise_sigma=NOISE_SIGMA_M, outlier_fraction=OUTLIER_FRACTION,
        pose=pose, **dims,
    )


def _has_plane(spec: SyntheticCloudSpec, cfg: RunConfig) -> bool:
    return len(surface_grid(spec)) >= cfg.filter.min_inlier_count


# ---------------------------------------------------------------------------
# Staged decision pipeline (the order of switching.decide)
# ---------------------------------------------------------------------------


def staged_decide(rec, frame: str, cloud, cfg: RunConfig, ctx: dict) -> str:
    """The stages of ``switching.decide`` called one by one, then serialised."""
    f = cfg.filter
    with rec.span("cloud.passthrough", frame):
        filtered = passthrough(cloud, f)
    with rec.span("cloud.voxel", frame):
        reduced = voxel_downsample(filtered, f.voxel_leaf)
    ctx["voxel_in"], ctx["voxel_out"] = len(filtered), len(reduced)
    with rec.span("cloud.ransac", frame):
        patch = ransac_plane(reduced, f, cfg.seed)
    ctx["ransac_in"] = len(reduced)
    if not plane_availability(patch):
        ctx["no_plane"] = 1
        ok, transformation = switching_function(False, False, False)
        decision = SwitchDecision(
            plane_ok=False, area_ok=False, height_ok=False, ok=ok, transformation=transformation, pose=None,
            diagnostics=StageDiagnostics(inlier_count=0, boundary_count=0, accepted_candidate=None, height_delta=None),
        )
    else:
        ctx["patch"], ctx["inliers"] = patch, len(patch.inliers)
        with rec.span("boundary.estimate", frame):
            rim = estimate_boundary(patch, cfg.slice_width)
        ctx["points_out"] = len(rim)
        with rec.span("footprint.place", frame):
            report = check_placeability(rim.points, patch.centroid, patch.normal, cfg.foot)
        ctx["candidates_tried"] = report.candidates_tried
        # The verdict is assembled inside the height span: it is the last
        # stage of decide() and costs next to nothing on its own.
        with rec.span("switching.height", frame):
            height_ok, delta = height_availability(patch.centroid, cfg.height)
            ok, transformation = switching_function(True, report.placeable, height_ok)
            decision = SwitchDecision(
                plane_ok=True, area_ok=report.placeable, height_ok=height_ok, ok=ok,
                transformation=transformation, pose=report.pose,
                diagnostics=StageDiagnostics(
                    inlier_count=len(patch.inliers), boundary_count=len(rim),
                    accepted_candidate=report.candidates_tried if report.placeable else None,
                    height_delta=delta,
                ),
            )
    with rec.span("switching.serialise", frame):
        return decision_to_json(decision)


def window_stats(patch, slice_width: float) -> tuple[int, int]:
    """Largest slicing window and sum of k(k-1)/2 over all windows of a patch.

    Bins points exactly as ``estimate_boundary`` does, so ``pairs`` is the
    number of point pairs its exact farthest-pair search compares.
    """
    pts = patch.inliers.points
    largest, pairs = 0, 0
    for axis in range(3):
        coords = pts[:, axis]
        idx = np.floor((coords - coords.min()) / slice_width + 0.5).astype(np.int64)
        counts = np.unique(idx, return_counts=True)[1].astype(np.int64)
        largest = max(largest, int(counts.max()))
        pairs += int((counts * (counts - 1) // 2).sum())
    return largest, pairs


# ---------------------------------------------------------------------------
# decide-small: in-memory frames through switching.decide
# ---------------------------------------------------------------------------


class MemoryFrame:
    """A decide-small frame: an in-memory cloud and its designed outcome."""

    def __init__(self, name: str, cloud, expected: Expected, cfg: RunConfig):
        self.name = name
        self.cloud = cloud
        self.expected = expected
        self.cfg = cfg

    def run(self) -> Outcome:
        c = self.cfg
        decision = decide(
            self.cloud, filter_cfg=c.filter, slice_width=c.slice_width,
            foot=c.foot, height_cfg=c.height, seed=c.seed,
        )
        return Outcome(decision_to_json(decision))

    def staged(self, rec, ctx: dict) -> Outcome:
        return Outcome(staged_decide(rec, self.name, self.cloud, self.cfg, ctx))

    def check(self, outcome: Outcome):
        return None if self.expected.matches(outcome.text) else "wrong_verdict"

    def work(self, outcome: Outcome) -> int:
        return len(self.cloud)


def setup_small(rng, scale, workdir: Path, rec) -> list:
    cfg = load_config(None)
    tiny = scale == "tiny"
    shapes = TINY["small_shapes"] if tiny else tuple(SMALL_FITS)
    draws = TINY["small_realizations"] if tiny else SMALL_REALIZATIONS
    ops = []
    for draw in range(draws):
        for shape in shapes:
            for variant in SMALL_VARIANTS:
                dims = SMALL_NARROW[shape] if variant == "narrow" else SMALL_FITS[shape]
                raise_m = float(rng.choice([-1.0, 1.0])) * HEIGHT_OFFSET_M if variant == "offset" else 0.0
                yaw = rng.uniform(-math.pi, math.pi)
                tilt, roll = (rng.uniform(*TILT_RANGE_RAD), rng.uniform(-0.2, 0.2)) if variant == "tilted" else (0.0, 0.0)
                spec = _posed_spec(shape, dims, SMALL_PITCH_M, yaw, tilt, roll, raise_m)
                cloud_seed = int(rng.integers(2**31))
                name = f"{shape.value}-{variant}-{draw}"
                with rec.span("synth.generate", name):
                    cloud = generate_cloud(spec, seed=cloud_seed)
                expected = Expected(plane=_has_plane(spec, cfg), fits=variant != "narrow", height=variant != "offset")
                ops.append(MemoryFrame(name, cloud, expected, cfg))
    return ops


# ---------------------------------------------------------------------------
# decide-dense: PCD files through `steelnav decide`
# ---------------------------------------------------------------------------


class FileFrame:
    """A decide-dense frame: a PCD file decided through the CLI in-process."""

    def __init__(self, name: str, path: Path, out_path: Path, expected: Expected, points: int):
        self.name = name
        self.path = path
        self.out_path = out_path
        self.expected = expected
        self.points = points

    def run(self) -> Outcome:
        if self.out_path.exists():
            self.out_path.unlink()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["decide", str(self.path), "--out", str(self.out_path)])
        if code not in (cli.EXIT_MOBILE, cli.EXIT_INCH_WORM):
            raise OpFailure("exit_code")
        return Outcome(self.out_path.read_text(encoding="utf-8"), code)

    def staged(self, rec, ctx: dict) -> Outcome:
        with rec.span("config.load", self.name):
            args = cli.build_parser().parse_args(["decide", str(self.path)])
            cfg = load_config(args.config)
        with rec.span("cloud.load", self.name):
            cloud = load_cloud(args.cloud)
        text = staged_decide(rec, self.name, cloud, cfg, ctx) + "\n"
        mobile = json.loads(text)["transformation"] == "Mobile"
        return Outcome(text, cli.EXIT_MOBILE if mobile else cli.EXIT_INCH_WORM)

    def check(self, outcome: Outcome):
        if not self.expected.matches(outcome.text):
            return "wrong_verdict"
        want = cli.EXIT_MOBILE if self.expected.mobile else cli.EXIT_INCH_WORM
        return None if outcome.detail == want else "exit_code"

    def work(self, outcome: Outcome) -> int:
        return self.points


def setup_dense(rng, scale, workdir: Path, rec) -> list:
    cfg = load_config(None)
    sides = TINY["dense_sides"] if scale == "tiny" else DENSE_SIDES_M
    pitch = TINY["dense_pitch"] if scale == "tiny" else DENSE_PITCH_M
    frames_dir = workdir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for side in sides:
        # Level frames sit at base height and should read Mobile; tilted
        # frames are raised above it and should read InchWorm (exit 10).
        # The plates stay square to the camera axes so that every slicing
        # window of a rung holds the same number of points: the seed code's
        # memory peak then does not hinge on which window a deadline cuts.
        for tilted in (False, True):
            raise_m = HEIGHT_OFFSET_M if tilted else 0.0
            spec = _posed_spec(CloudShape.RECTANGLE, dict(size_x=side, size_y=side), pitch,
                               0.0, DENSE_TILT_RAD if tilted else 0.0, 0.0, raise_m)
            cloud_seed = int(rng.integers(2**31))
            name = f"plate{side:.3f}-{'tilted' if tilted else 'level'}"
            with rec.span("synth.generate", name):
                cloud = generate_cloud(spec, seed=cloud_seed)
            path = frames_dir / f"{name}.pcd"
            with rec.span("cloud.save", name):
                save_cloud(path, cloud)
            expected = Expected(plane=_has_plane(spec, cfg), fits=True, height=not tilted)
            ops.append(FileFrame(name, path, frames_dir / f"{name}.json", expected, len(cloud)))
    return ops


# ---------------------------------------------------------------------------
# sim-loop: drive, magnet and jump simulator jobs with serialisation
# ---------------------------------------------------------------------------


ROUTE_LEG_M = 0.7
ROUTE_TURN_RAD = 0.6


class TrackJob:
    """Path tracking over one route with measurement noise, serialised to CSV."""

    NOISE_SIGMA = 0.002
    HORIZON_S = 120.0

    def __init__(self, name: str, waypoints: tuple, noise_seed: int):
        self.name = name
        self.waypoints = waypoints
        self.noise_seed = noise_seed

    def _simulate(self):
        return simulate_track(
            self.waypoints, noise_sigma=self.NOISE_SIGMA, noise_seed=self.noise_seed, horizon=self.HORIZON_S,
        )

    def run(self) -> Outcome:
        result = self._simulate()
        return Outcome(trace_to_csv(result), result)

    def staged(self, rec, ctx: dict) -> Outcome:
        with rec.span("drive.track", self.name):
            result = self._simulate()
        ctx["drive_steps"] = len(result.rows)
        with rec.span("drive.csv", self.name):
            return Outcome(trace_to_csv(result), result)

    def check(self, outcome: Outcome):
        result = outcome.detail
        last = self.waypoints[-1]
        lines = outcome.text.splitlines()
        ok = (
            result.converged
            and result.waypoints_reached == len(self.waypoints)
            and math.hypot(result.final_pose.x - last.x, result.final_pose.y - last.y) <= 0.03
            and len(lines) == len(result.rows) + 1
            and lines[0] == "t,x,y,phi,e1,e2,e3,v,omega,waypoint_index"
        )
        return None if ok else "wrong_output"

    def work(self, outcome: Outcome) -> int:
        return len(outcome.detail.rows)


class MagnetJob:
    """Gap control from seeded gaps towards one setpoint, serialised to CSV."""

    DT = 0.005

    DURATION_S = 2.0

    def __init__(self, name: str, left: float, right: float, setpoint: float, disturbance: float):
        self.name = name
        self.left, self.right = left, right
        self.setpoint = setpoint
        self.plant = MagnetPlant(disturbance=disturbance)
        self.steps = int(round(self.DURATION_S / self.DT))

    def _simulate(self):
        return simulate_magnet(self.left, self.right, self.setpoint, plant=self.plant, dt=self.DT, duration=self.DURATION_S)

    def run(self) -> Outcome:
        trace = self._simulate()
        return Outcome(magnet_trace_to_csv(trace), trace)

    def staged(self, rec, ctx: dict) -> Outcome:
        with rec.span("actuate.magnet", self.name):
            trace = self._simulate()
        ctx["magnet_steps"] = len(trace.rows)
        with rec.span("actuate.magnet_csv", self.name):
            return Outcome(magnet_trace_to_csv(trace), trace)

    def check(self, outcome: Outcome):
        trace = outcome.detail
        final = trace.final_state
        ok = (
            len(trace.rows) == self.steps
            and outcome.text.count("\n") == self.steps + 1
            and trace.settled
            and abs(final.gap_left - self.setpoint) < SETTLE_TOLERANCE_MM
            and abs(final.gap_right - self.setpoint) < SETTLE_TOLERANCE_MM
        )
        return None if ok else "wrong_output"

    def work(self, outcome: Outcome) -> int:
        return len(outcome.detail.rows)


_PHASE_ORDER = tuple(InchwormPhase)


class JumpJob:
    """The canonical and a seeded event script, then a planned trajectory."""

    def __init__(self, name: str, script: tuple, start: np.ndarray, plan: JumpPlanConfig, steps: int):
        self.name = name
        self.script = script
        self.start = start
        self.plan = plan
        self.steps = steps

    def _scripts(self):
        return (("canonical", CANONICAL_JUMP_SEQUENCE), ("random", self.script))

    def run(self) -> Outcome:
        parts, rows = [], {}
        for label, events in self._scripts():
            rows[label] = run_jump_sequence(initial_jump_state(), events)[1]
            parts.append(jump_trace_to_jsonl(rows[label]))
        path = plan_jump_trajectory(self.start, None, self.plan, self.steps)
        parts.append(trajectory_to_csv(path))
        return Outcome("".join(parts), (rows, path))

    def staged(self, rec, ctx: dict) -> Outcome:
        parts, rows = [], {}
        for label, events in self._scripts():
            with rec.span("actuate.jump", self.name):
                rows[label] = run_jump_sequence(initial_jump_state(), events)[1]
                parts.append(jump_trace_to_jsonl(rows[label]))
        with rec.span("actuate.plan", self.name):
            path = plan_jump_trajectory(self.start, None, self.plan, self.steps)
            parts.append(trajectory_to_csv(path))
        return Outcome("".join(parts), (rows, path))

    def check(self, outcome: Outcome):
        rows, path = outcome.detail
        ok = all(self._script_ok(events, rows[label]) for label, events in self._scripts())
        ok = ok and path.shape == (2 * self.steps - 1, 6)
        ok = ok and np.array_equal(path[0], self.start) and np.array_equal(path[-1], self.plan.target_joints)
        ok = ok and np.array_equal(path[self.steps - 1], self.plan.convenient_joints)
        return None if ok else "wrong_output"

    def work(self, outcome: Outcome) -> int:
        return 0  # jump events and trajectory rows are not control steps

    @staticmethod
    def _script_ok(events, rows) -> bool:
        """Each phase accepts only the next canonical event; one foot holds outside the wheeled phases."""
        phase = 0
        for event, row in zip(events, rows):
            legal = phase < len(CANONICAL_JUMP_SEQUENCE) and event is CANONICAL_JUMP_SEQUENCE[phase]
            if legal:
                phase += 1
            if row["accepted"] is not legal or row["phase"] != _PHASE_ORDER[phase].value:
                return False
            touched = MagnetMode.TOUCHED.value in (row["magnet1_mode"], row["magnet2_mode"])
            if _PHASE_ORDER[phase] not in WHEELED_PHASES and not touched:
                return False
        return len(rows) == len(events)


def _route(rng, legs: int) -> tuple:
    """Legs of equal length joined by equal turns of seeded sign: the routes
    differ in shape, but not in how much driving they take."""
    x = y = heading = 0.0
    waypoints = []
    for _ in range(legs):
        heading += float(rng.choice([-1.0, 1.0])) * ROUTE_TURN_RAD
        x += ROUTE_LEG_M * math.cos(heading)
        y += ROUTE_LEG_M * math.sin(heading)
        waypoints.append(Pose2D(x, y, heading))
    return tuple(waypoints)


def _jump_script(rng) -> tuple:
    """The canonical events with up to two illegal events before each."""
    events = []
    for expected in CANONICAL_JUMP_SEQUENCE:
        wrong = [e for e in JumpEvent if e is not expected]
        for _ in range(int(rng.integers(0, 3))):
            events.append(wrong[int(rng.integers(len(wrong)))])
        events.append(expected)
    events.append(JumpEvent.LOWER_BASE_MAGNET)  # the terminal phase rejects everything
    return tuple(events)


def setup_sim(rng, scale, workdir: Path, rec) -> list:
    tiny = scale == "tiny"
    per_kind = TINY["jobs_per_kind"] if tiny else 3
    legs = TINY["route_legs"] if tiny else 4
    limits = np.array([[-math.pi, math.pi]] * 6)
    ops = []
    for i in range(per_kind):
        ops.append(TrackJob(f"track{i}", _route(rng, legs), int(rng.integers(2**31))))
        for setpoint in (0.0, 1.0):
            left, right = rng.uniform(0.0, 4.0, size=2)
            ops.append(MagnetJob(
                f"magnet{i}-to{setpoint:g}", float(left), float(right), setpoint,
                float(rng.uniform(-0.05, 0.05)),
            ))
        plan = JumpPlanConfig(
            convenient_joints=rng.uniform(-1.0, 1.0, size=6),
            target_joints=rng.uniform(-1.0, 1.0, size=6),
            joint_limits=limits,
        )
        ops.append(JumpJob(f"jump{i}", _jump_script(rng), rng.uniform(-0.5, 0.5, size=6), plan,
                           int(rng.integers(10, 31))))
    return ops


WORKLOADS = {
    "decide-small": setup_small,
    "decide-dense": setup_dense,
    "sim-loop": setup_sim,
}
