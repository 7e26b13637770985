"""INI configuration for the pipeline and the simulators.

One flat, human-editable file in configparser syntax; every key optional
with the package defaults filled in, unknown sections or keys rejected so
typos fail loudly.  Command-line flags override file values.

``TABLE`` is the one list of settable values: it maps each (section, key)
to the field it sets in :class:`RunConfig` and the parser of its text.  Each
default is written once, in the module whose code uses it: the simulator
setups :class:`DriveSimConfig` and :class:`MagnetSimConfig` live beside
their simulators, the slice width in :mod:`steelnav.boundary`, and the other
values in the dataclasses that :class:`RunConfig` nests.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .actuate import CANONICAL_JUMP_SEQUENCE, DEFAULT_JOINT_LIMITS, JumpEvent, JumpPlanConfig, MagnetSimConfig
from .boundary import DEFAULT_SLICE_WIDTH
from .cloud import FilterConfig, RigidTransform
from .drive import DriveSimConfig, Pose2D
from .errors import ConfigError
from .footprint import FootGeometry
from .switching import HeightConfig


def _default_jump_plan() -> JumpPlanConfig:
    return JumpPlanConfig(
        convenient_joints=np.array([0.0, -0.6, 1.0, 0.0, 0.5, 0.0]),
        target_joints=np.array([0.3, -0.4, 0.8, 0.0, 0.7, 0.3]),
        joint_limits=DEFAULT_JOINT_LIMITS,
    )


@dataclass(frozen=True)
class JumpSimConfig:
    """Inch-worm jump simulation setup."""

    plan: JumpPlanConfig = field(default_factory=_default_jump_plan)
    start_joints: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    steps: int = 10
    events: tuple[JumpEvent, ...] = CANONICAL_JUMP_SEQUENCE


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, bundled."""

    filter: FilterConfig = FilterConfig()
    slice_width: float = DEFAULT_SLICE_WIDTH
    foot: FootGeometry = FootGeometry()
    height: HeightConfig = HeightConfig()
    drive: DriveSimConfig = DriveSimConfig()
    magnet: MagnetSimConfig = MagnetSimConfig()
    jump: JumpSimConfig = JumpSimConfig()
    seed: int = 0


# Value parsers: each takes "[section] key", for its messages, and the raw text.


def _number(where: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: not a finite number: {text!r}")
    return value


def _integer(where: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {text!r}")


def _seed(where: str, text: str) -> int:
    value = _integer(where, text)
    if value < 0:
        raise ConfigError(f"{where}: must be a non-negative integer: {text!r}")
    return value


def _vector(length: int) -> Callable[[str, str], tuple[float, ...]]:
    def parse(where: str, text: str) -> tuple[float, ...]:
        parts = text.replace(",", " ").split()
        if len(parts) != length:
            raise ConfigError(f"{where}: expected {length} numbers, got {len(parts)}")
        return tuple(_number(where, p) for p in parts)
    return parse


def _pose(where: str, text: str) -> Pose2D:
    return Pose2D(*_vector(3)(where, text))


def _poses(where: str, text: str) -> tuple[Pose2D, ...]:
    """Semicolon-separated planar poses, each `x y [phi]`."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise ConfigError(f"{where}: pose needs `x y [phi]`, got {chunk!r}")
        values = [_number(where, p) for p in parts]
        out.append(Pose2D(values[0], values[1], values[2] if len(values) == 3 else 0.0))
    if not out:
        raise ConfigError(f"{where}: no poses given")
    return tuple(out)


def _events(where: str, text: str) -> tuple[JumpEvent, ...]:
    events = []
    for name in text.replace(",", " ").split():
        try:
            events.append(JumpEvent(name))
        except ValueError:
            raise ConfigError(f"{where}: unknown jump event {name!r}")
    return tuple(events)


# (section, key) -> (field path in RunConfig, parser).  A path step is a
# dataclass field name, or an index into a tuple or array.  The camera pose
# is rebuilt whole from its translation and z-y-x Euler angles, so its steps
# name those six parts.
TABLE: dict[tuple[str, str], tuple[tuple, Callable]] = {
    ("filter", "x_min"): (("filter", "x_range", 0), _number),
    ("filter", "x_max"): (("filter", "x_range", 1), _number),
    ("filter", "y_min"): (("filter", "y_range", 0), _number),
    ("filter", "y_max"): (("filter", "y_range", 1), _number),
    ("filter", "z_min"): (("filter", "z_range", 0), _number),
    ("filter", "z_max"): (("filter", "z_range", 1), _number),
    ("filter", "voxel_leaf"): (("filter", "voxel_leaf"), _number),
    ("filter", "ransac_threshold"): (("filter", "ransac_threshold"), _number),
    ("filter", "ransac_iterations"): (("filter", "ransac_iterations"), _integer),
    ("filter", "min_inliers"): (("filter", "min_inlier_count"), _integer),
    ("boundary", "slice_width"): (("slice_width",), _number),
    ("foot", "width"): (("foot", "width"), _number),
    ("foot", "length"): (("foot", "length"), _number),
    ("foot", "tolerance"): (("foot", "tolerance"), _number),
    ("foot", "candidates"): (("foot", "candidate_count"), _integer),
    ("foot", "neighbors"): (("foot", "neighbor_count"), _integer),
    ("height", "base_height"): (("height", "base_height"), _number),
    ("height", "tolerance"): (("height", "tolerance"), _number),
    ("height", "camera_x"): (("height", "camera_to_base", "x"), _number),
    ("height", "camera_y"): (("height", "camera_to_base", "y"), _number),
    ("height", "camera_z"): (("height", "camera_to_base", "z"), _number),
    ("height", "camera_yaw"): (("height", "camera_to_base", "yaw"), _number),
    ("height", "camera_pitch"): (("height", "camera_to_base", "pitch"), _number),
    ("height", "camera_roll"): (("height", "camera_to_base", "roll"), _number),
    ("drive", "kp_pos"): (("drive", "gains", "position", "kp"), _number),
    ("drive", "ki_pos"): (("drive", "gains", "position", "ki"), _number),
    ("drive", "kd_pos"): (("drive", "gains", "position", "kd"), _number),
    ("drive", "v_max"): (("drive", "gains", "position", "out_limit"), _number),
    ("drive", "int_pos"): (("drive", "gains", "position", "int_limit"), _number),
    ("drive", "kp_head"): (("drive", "gains", "heading", "kp"), _number),
    ("drive", "ki_head"): (("drive", "gains", "heading", "ki"), _number),
    ("drive", "kd_head"): (("drive", "gains", "heading", "kd"), _number),
    ("drive", "omega_max"): (("drive", "gains", "heading", "out_limit"), _number),
    ("drive", "int_head"): (("drive", "gains", "heading", "int_limit"), _number),
    ("drive", "dt"): (("drive", "dt"), _number),
    ("drive", "v_ref"): (("drive", "v_ref"), _number),
    ("drive", "horizon"): (("drive", "horizon"), _number),
    ("drive", "accept_radius"): (("drive", "accept_radius"), _number),
    ("drive", "noise_sigma"): (("drive", "noise_sigma"), _number),
    ("drive", "start"): (("drive", "start"), _pose),
    ("drive", "waypoints"): (("drive", "waypoints"), _poses),
    ("magnet", "kp"): (("magnet", "gains", "kp"), _number),
    ("magnet", "ki"): (("magnet", "gains", "ki"), _number),
    ("magnet", "kd"): (("magnet", "gains", "kd"), _number),
    ("magnet", "out_limit"): (("magnet", "gains", "out_limit"), _number),
    ("magnet", "int_limit"): (("magnet", "gains", "int_limit"), _number),
    ("magnet", "time_constant"): (("magnet", "plant", "time_constant"), _number),
    ("magnet", "speed_gain"): (("magnet", "plant", "speed_gain"), _number),
    ("magnet", "disturbance"): (("magnet", "plant", "disturbance"), _number),
    ("magnet", "trim_gain"): (("magnet", "trim_gain"), _number),
    ("magnet", "dt"): (("magnet", "dt"), _number),
    ("magnet", "duration"): (("magnet", "duration"), _number),
    ("magnet", "setpoint"): (("magnet", "setpoint"), _number),
    ("magnet", "initial_left"): (("magnet", "initial_left"), _number),
    ("magnet", "initial_right"): (("magnet", "initial_right"), _number),
    ("jump", "convenient"): (("jump", "plan", "convenient_joints"), _vector(6)),
    ("jump", "target"): (("jump", "plan", "target_joints"), _vector(6)),
    ("jump", "limits_low"): (("jump", "plan", "joint_limits", np.s_[..., 0]), _vector(6)),
    ("jump", "limits_high"): (("jump", "plan", "joint_limits", np.s_[..., 1]), _vector(6)),
    ("jump", "start"): (("jump", "start_joints"), _vector(6)),
    ("jump", "steps"): (("jump", "steps"), _integer),
    ("jump", "events"): (("jump", "events"), _events),
    ("run", "seed"): (("seed",), _seed),
}

def load_config(
    path: Optional[Union[str, Path]], overrides: Optional[Mapping[tuple[str, str], str]] = None,
) -> RunConfig:
    """Load a RunConfig: the defaults, then the INI file at ``path`` (None
    reads no file), then ``overrides``.

    ``overrides`` maps table keys to raw text, parsed exactly like a file
    value; the command-line flags arrive this way.
    """
    raw = _read_ini(path) if path is not None else {}
    raw.update(overrides or {})
    changes: dict = {}
    for (section, key), text in raw.items():
        steps, parse = TABLE[(section, key)]
        node = changes
        for step in steps[:-1]:
            node = node.setdefault(step, {})
        node[steps[-1]] = parse(f"[{section}] {key}", text)
    return _apply(RunConfig(), changes)


def _read_ini(path: Union[str, Path]) -> dict[tuple[str, str], str]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")

    if parser.defaults():
        # configparser would copy these keys into every section.
        raise ConfigError(f"[{parser.default_section}] section is not supported in {path}: "
                          "put each key in its own section")
    sections = {section for section, _ in TABLE}
    raw = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if (section, key) not in TABLE:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[(section, key)] = text
    return raw


def _apply(value, changes: dict):
    """``value`` with ``changes`` ({path step: new value or nested changes})
    applied; every dataclass is rebuilt once, from all its changed fields, so
    its own checks see the final values."""
    def child(old, change):
        return _apply(old, change) if isinstance(change, dict) else change

    if isinstance(value, RigidTransform):
        return _camera_pose(value, changes)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{name: child(getattr(value, name), c) for name, c in changes.items()})
    out = np.array(value) if isinstance(value, np.ndarray) else list(value)
    for index, change in changes.items():
        out[index] = child(value[index], change)
    return out if isinstance(value, np.ndarray) else tuple(out)


def _camera_pose(old: RigidTransform, changes: dict) -> RigidTransform:
    """``old`` rebuilt by :meth:`RigidTransform.from_euler_zyx` with some of
    its translation components and z-y-x Euler angles replaced."""
    rot = old.rotation
    parts = dict(
        zip("xyz", old.translation),
        yaw=math.atan2(rot[1, 0], rot[0, 0]),
        pitch=math.atan2(-rot[2, 0], math.hypot(rot[2, 1], rot[2, 2])),
        roll=math.atan2(rot[2, 1], rot[2, 2]),
    )
    parts.update(changes)
    return RigidTransform.from_euler_zyx(
        parts["yaw"], parts["pitch"], parts["roll"], translation=(parts["x"], parts["y"], parts["z"]),
    )
