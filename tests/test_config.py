"""Tests for INI configuration loading."""

import configparser
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from steelnav.actuate import CANONICAL_JUMP_SEQUENCE, JumpEvent, simulate_magnet
from steelnav.cloud import RigidTransform
from steelnav.config import TABLE, DriveSimConfig, JumpSimConfig, MagnetSimConfig, RunConfig, load_config
from steelnav.drive import Pose2D, simulate_track
from steelnav.errors import ConfigError


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_none_path_gives_defaults():
    cfg = load_config(None)
    assert cfg.filter == RunConfig().filter
    assert cfg.filter.voxel_leaf == 0.005
    assert cfg.filter.ransac_threshold == 0.005
    assert cfg.filter.ransac_iterations == 500
    assert cfg.filter.min_inlier_count == 200
    assert cfg.slice_width == 0.02
    assert cfg.foot.width == 0.10
    assert cfg.foot.length == 0.15
    assert cfg.height.tolerance == 0.01
    assert cfg.seed == 0


def test_empty_file_equals_defaults(tmp_path):
    # nested transforms compare by identity, so check the value-typed parts
    path = write(tmp_path, "")
    cfg, dflt = load_config(path), load_config(None)
    assert cfg.filter == dflt.filter
    assert cfg.slice_width == dflt.slice_width
    assert cfg.foot == dflt.foot
    assert cfg.drive == dflt.drive
    assert cfg.magnet == dflt.magnet
    assert cfg.height.base_height == dflt.height.base_height
    assert cfg.height.tolerance == dflt.height.tolerance
    assert cfg.jump.steps == dflt.jump.steps
    assert cfg.jump.events == CANONICAL_JUMP_SEQUENCE
    assert cfg.seed == dflt.seed


def test_full_file_parses(tmp_path):
    path = write(tmp_path, """
[filter]
x_min = -1.0
x_max = 1.0
voxel_leaf = 0.01
ransac_threshold = 0.004
ransac_iterations = 300
min_inliers = 80

[boundary]
slice_width = 0.03

[foot]
width = 0.12
length = 0.18
tolerance = 0.05
candidates = 7
neighbors = 4

[height]
base_height = 0.2
tolerance = 0.02
camera_z = 0.5

[drive]
kp_pos = 1.0
v_max = 0.3
dt = 0.01
waypoints = 1 0 ; 1 1 1.5708

[magnet]
kp = 3.0
duration = 1.5
initial_left = 2.0
initial_right = 2.5

[jump]
convenient = 0 0 0 0 0 0
target = 0.1 0.1 0.1 0.1 0.1 0.1
steps = 5

[run]
seed = 42
""")
    cfg = load_config(path)
    assert cfg.filter.x_range == (-1.0, 1.0)
    assert cfg.filter.y_range == (-5.0, 5.0)
    assert cfg.filter.voxel_leaf == 0.01
    assert cfg.filter.ransac_threshold == 0.004
    assert cfg.filter.ransac_iterations == 300
    assert cfg.filter.min_inlier_count == 80
    assert cfg.slice_width == 0.03
    assert cfg.foot.width == 0.12
    assert cfg.foot.candidate_count == 7
    assert cfg.foot.neighbor_count == 4
    assert cfg.height.base_height == 0.2
    assert cfg.height.tolerance == 0.02
    np.testing.assert_allclose(cfg.height.camera_to_base.translation, [0.0, 0.0, 0.5])
    assert cfg.drive.gains.position.kp == 1.0
    assert cfg.drive.gains.position.out_limit == 0.3
    assert cfg.drive.gains.heading.kp == 2.0
    assert cfg.drive.dt == 0.01
    assert cfg.drive.waypoints == (Pose2D(1.0, 0.0, 0.0), Pose2D(1.0, 1.0, 1.5708))
    assert cfg.magnet.gains.kp == 3.0
    assert cfg.magnet.duration == 1.5
    assert cfg.magnet.initial_left == 2.0
    assert cfg.magnet.initial_right == 2.5
    np.testing.assert_allclose(np.asarray(cfg.jump.plan.target_joints), np.full(6, 0.1))
    assert cfg.jump.steps == 5
    assert cfg.seed == 42


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[sensors]\nrate = 10\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[filter]\nvoxel = 0.01\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


@pytest.mark.parametrize("ini", [
    "[DEFAULT]\nseed = 3\n[filter]\n",
    "[DEFAULT]\nseed = 3\n",
], ids=["beside-a-section", "alone"])
def test_default_section_rejected(tmp_path, ini):
    with pytest.raises(ConfigError, match=r"\[DEFAULT\] section is not supported"):
        load_config(write(tmp_path, ini))


def test_bad_number_rejected(tmp_path):
    path = write(tmp_path, "[filter]\nvoxel_leaf = tiny\n")
    with pytest.raises(ConfigError, match="not a number"):
        load_config(path)


def test_bad_integer_rejected(tmp_path):
    path = write(tmp_path, "[filter]\nransac_iterations = 2.5\n")
    with pytest.raises(ConfigError, match="not an integer"):
        load_config(path)


@pytest.mark.parametrize("text", ["-1", "-7919"])
def test_negative_seed_rejected_at_load(tmp_path, text):
    with pytest.raises(ConfigError, match=r"\[run\] seed: must be a non-negative integer"):
        load_config(write(tmp_path, f"[run]\nseed = {text}\n"))
    with pytest.raises(ConfigError, match=r"\[run\] seed"):
        load_config(None, {("run", "seed"): text})


def test_bad_waypoint_arity_rejected(tmp_path):
    path = write(tmp_path, "[drive]\nwaypoints = 1 2 3 4\n")
    with pytest.raises(ConfigError, match="x y"):
        load_config(path)


def test_wrong_vector_length_rejected(tmp_path):
    path = write(tmp_path, "[jump]\nconvenient = 1 2 3\n")
    with pytest.raises(ConfigError, match="expected 6 numbers"):
        load_config(path)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.ini")


def test_malformed_ini_rejected(tmp_path):
    path = write(tmp_path, "voxel_leaf = 0.01\n")
    with pytest.raises(ConfigError, match="malformed config"):
        load_config(path)


def test_jump_events_parse_as_words(tmp_path):
    path = write(tmp_path, "[jump]\nevents = LowerBaseMagnet ReachConvenientPose\n")
    cfg = load_config(path)
    assert cfg.jump.events == (JumpEvent.LOWER_BASE_MAGNET, JumpEvent.REACH_CONVENIENT_POSE)
    assert load_config(None).jump.events is CANONICAL_JUMP_SEQUENCE


def test_unknown_jump_event_rejected_at_load(tmp_path):
    path = write(tmp_path, "[jump]\nevents = LowerBaseMagnet Fly\n")
    with pytest.raises(ConfigError, match=r"\[jump\] events: unknown jump event 'Fly'"):
        load_config(path)


def test_sim_config_defaults():
    drive = DriveSimConfig()
    assert drive.waypoints == (Pose2D(2.0, 0.0, 0.0),)
    magnet = MagnetSimConfig()
    assert magnet.setpoint == 1.0
    assert magnet.initial_left == 3.0
    jump = JumpSimConfig()
    assert jump.steps == 10
    assert len(tuple(jump.start_joints)) == 6


@pytest.mark.parametrize("config, simulate, required", [
    (DriveSimConfig, simulate_track, {"waypoints"}),
    (MagnetSimConfig, simulate_magnet, {"initial_left", "initial_right", "setpoint"}),
], ids=["drive", "magnet"])
def test_sim_config_fields_are_the_simulator_defaults(config, simulate, required):
    # each default is written once: the simulator's keyword defaults are the config's own objects
    params = inspect.signature(simulate).parameters
    for f in dataclasses.fields(config):
        assert f.name in params
        default = params[f.name].default
        if f.name in required:
            assert default is inspect.Parameter.empty
        else:
            assert default is f.default, f.name


# (section, key, a valid non-default value, the RunConfig field it sets)
NON_DEFAULT = [
    ("filter", "x_min", "-4", "filter.x_range"),
    ("filter", "x_max", "4", "filter.x_range"),
    ("filter", "y_min", "-4", "filter.y_range"),
    ("filter", "y_max", "4", "filter.y_range"),
    ("filter", "z_min", "-4", "filter.z_range"),
    ("filter", "z_max", "4", "filter.z_range"),
    ("filter", "voxel_leaf", "0.01", "filter.voxel_leaf"),
    ("filter", "ransac_threshold", "0.004", "filter.ransac_threshold"),
    ("filter", "ransac_iterations", "300", "filter.ransac_iterations"),
    ("filter", "min_inliers", "80", "filter.min_inlier_count"),
    ("boundary", "slice_width", "0.03", "slice_width"),
    ("foot", "width", "0.12", "foot.width"),
    ("foot", "length", "0.18", "foot.length"),
    ("foot", "tolerance", "0.05", "foot.tolerance"),
    ("foot", "candidates", "7", "foot.candidate_count"),
    ("foot", "neighbors", "4", "foot.neighbor_count"),
    ("height", "base_height", "0.2", "height.base_height"),
    ("height", "tolerance", "0.02", "height.tolerance"),
    ("height", "camera_x", "0.1", "height.camera_to_base.translation"),
    ("height", "camera_y", "0.1", "height.camera_to_base.translation"),
    ("height", "camera_z", "0.5", "height.camera_to_base.translation"),
    ("height", "camera_yaw", "0.3", "height.camera_to_base.rotation"),
    ("height", "camera_pitch", "0.2", "height.camera_to_base.rotation"),
    ("height", "camera_roll", "0.1", "height.camera_to_base.rotation"),
    ("drive", "kp_pos", "1.0", "drive.gains.position.kp"),
    ("drive", "ki_pos", "0.1", "drive.gains.position.ki"),
    ("drive", "kd_pos", "0.2", "drive.gains.position.kd"),
    ("drive", "v_max", "0.3", "drive.gains.position.out_limit"),
    ("drive", "int_pos", "0.6", "drive.gains.position.int_limit"),
    ("drive", "kp_head", "2.5", "drive.gains.heading.kp"),
    ("drive", "ki_head", "0.1", "drive.gains.heading.ki"),
    ("drive", "kd_head", "0.3", "drive.gains.heading.kd"),
    ("drive", "omega_max", "1.5", "drive.gains.heading.out_limit"),
    ("drive", "int_head", "0.7", "drive.gains.heading.int_limit"),
    ("drive", "dt", "0.01", "drive.dt"),
    ("drive", "v_ref", "0.15", "drive.v_ref"),
    ("drive", "horizon", "30", "drive.horizon"),
    ("drive", "accept_radius", "0.05", "drive.accept_radius"),
    ("drive", "noise_sigma", "0.01", "drive.noise_sigma"),
    ("drive", "start", "0.1 0.2 0.3", "drive.start"),
    ("drive", "waypoints", "1 0 ; 1 1 1.5708", "drive.waypoints"),
    ("magnet", "kp", "3.0", "magnet.gains.kp"),
    ("magnet", "ki", "0.6", "magnet.gains.ki"),
    ("magnet", "kd", "0.1", "magnet.gains.kd"),
    ("magnet", "out_limit", "0.8", "magnet.gains.out_limit"),
    ("magnet", "int_limit", "0.9", "magnet.gains.int_limit"),
    ("magnet", "time_constant", "0.2", "magnet.plant.time_constant"),
    ("magnet", "speed_gain", "4.0", "magnet.plant.speed_gain"),
    ("magnet", "disturbance", "0.1", "magnet.plant.disturbance"),
    ("magnet", "trim_gain", "0.4", "magnet.trim_gain"),
    ("magnet", "dt", "0.01", "magnet.dt"),
    ("magnet", "duration", "1.5", "magnet.duration"),
    ("magnet", "setpoint", "0.0", "magnet.setpoint"),
    ("magnet", "initial_left", "2.0", "magnet.initial_left"),
    ("magnet", "initial_right", "2.5", "magnet.initial_right"),
    ("jump", "convenient", "0 0 0 0 0 0", "jump.plan.convenient_joints"),
    ("jump", "target", "0.1 0.1 0.1 0.1 0.1 0.1", "jump.plan.target_joints"),
    ("jump", "limits_low", "-3 -3 -3 -3 -3 -3", "jump.plan.joint_limits"),
    ("jump", "limits_high", "3 3 3 3 3 3", "jump.plan.joint_limits"),
    ("jump", "start", "0.1 0 0 0 0 0", "jump.start_joints"),
    ("jump", "steps", "5", "jump.steps"),
    ("jump", "events", "Reform", "jump.events"),
    ("run", "seed", "42", "seed"),
]


def changed_fields(a, b, path=""):
    """Dotted paths of the dataclass fields whose values differ."""
    if dataclasses.is_dataclass(a):
        return {
            changed
            for f in dataclasses.fields(a)
            for changed in changed_fields(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
        }
    if isinstance(a, np.ndarray):
        same = a.shape == b.shape and np.array_equal(a, b)
    else:
        same = a == b
    return set() if same else {path.lstrip(".")}


def test_non_default_cases_cover_the_table():
    assert len(TABLE) == 63
    assert sorted((section, key) for section, key, _, _ in NON_DEFAULT) == sorted(TABLE)


@pytest.mark.parametrize("section, key, text, field", NON_DEFAULT, ids=[f"{s}.{k}" for s, k, _, _ in NON_DEFAULT])
def test_each_key_sets_exactly_its_field(tmp_path, section, key, text, field):
    path = write(tmp_path, f"[{section}]\n{key} = {text}\n")
    changed = changed_fields(RunConfig(), load_config(path))
    assert changed and all(c == field or c.startswith(field + ".") for c in changed), changed


def test_composite_keys_are_assembled_in_place(tmp_path):
    path = write(tmp_path, """
[filter]
x_min = 6
x_max = 10

[height]
camera_x = 0.1
camera_z = -0.2
camera_yaw = 0.3
camera_roll = 0.1

[jump]
limits_low = -1 -1 -1 -1 -1 -1
limits_high = 2 2 2 2 2 2
""")
    cfg = load_config(path)
    assert cfg.filter.x_range == (6.0, 10.0)
    expected = RigidTransform.from_euler_zyx(0.3, 0.0, 0.1, translation=(0.1, 0.0, -0.2))
    np.testing.assert_array_equal(cfg.height.camera_to_base.rotation, expected.rotation)
    np.testing.assert_array_equal(cfg.height.camera_to_base.translation, expected.translation)
    np.testing.assert_array_equal(cfg.jump.plan.joint_limits, [[-1.0, 2.0]] * 6)


def test_overrides_win_over_file(tmp_path):
    path = write(tmp_path, "[foot]\nwidth = 0.5\nlength = 0.2\n")
    cfg = load_config(path, {("foot", "width"): "0.12"})
    assert (cfg.foot.width, cfg.foot.length) == (0.12, 0.2)
    assert load_config(None, {("run", "seed"): "7"}).seed == 7


@pytest.mark.parametrize("ini", [
    "[drive]\nhorizon = inf\n",
    "[magnet]\nduration = nan\n",
    "[jump]\nconvenient = 0 0 nan 0 0 0\n",
    "[drive]\nwaypoints = 1 -inf\n",
], ids=["number", "nan", "vector", "poses"])
def test_non_finite_numbers_rejected(tmp_path, ini):
    with pytest.raises(ConfigError, match="not a finite number"):
        load_config(write(tmp_path, ini))


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[run]\nseed = \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


def test_readme_config_block_shows_every_key_at_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    shown = {(section, key): text for section in parser.sections() for key, text in parser[section].items()}
    assert sorted(shown) == sorted(TABLE)
    cfg, dflt = load_config(None, shown), RunConfig()
    assert changed_fields(dflt, cfg) <= {"jump.plan.joint_limits"}  # pi is shown to 5 decimals
    np.testing.assert_allclose(cfg.jump.plan.joint_limits, dflt.jump.plan.joint_limits, rtol=0, atol=1e-5)
