"""Command-line front end.

Subcommands: ``gen`` (synthetic cloud files), ``decide`` (cloud to
transformation decision), ``simulate track|magnet|jump`` (closed-loop
traces), ``batch`` (decide over a directory).  Every command exits 0 on
success, except that ``decide`` exits 10 for InchWorm, so shell automation
can branch on the mode without parsing JSON; all commands exit 2 on any
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .actuate import (
    initial_jump_state,
    jump_trace_to_jsonl,
    magnet_trace_to_csv,
    plan_jump_trajectory,
    run_jump_sequence,
    simulate_magnet,
    trajectory_to_csv,
)
from .cloud import RigidTransform, load_cloud, save_cloud
from .config import TABLE, RunConfig, load_config
from .drive import simulate_track, trace_to_csv
from .errors import NavError
from .switching import SwitchDecision, Transformation, decide, decision_to_json
from .synth import CloudShape, SyntheticCloudSpec, generate_cloud

EXIT_MOBILE = 0
EXIT_ERROR = 2
EXIT_INCH_WORM = 10

# Flags that override one config-table value each: (flag, (section, key), help).
SEED_FLAG = ("--seed", ("run", "seed"), "seed of RANSAC sampling and drive measurement noise")
DECIDE_FLAGS = (
    ("--alpha-s", ("boundary", "slice_width"), "boundary slice width, meters"),
    ("--foot-w", ("foot", "width"), "foot width, meters"),
    ("--foot-l", ("foot", "length"), "foot length, meters"),
    ("--tol-t", ("foot", "tolerance"), "interior-test relative tolerance"),
    ("--n", ("foot", "candidates"), "candidate anchors to try"),
    ("--m", ("foot", "neighbors"), "boundary neighbors per probe"),
    ("--min-inliers", ("filter", "min_inliers"), "minimum plane inlier count"),
    ("--voxel-leaf", ("filter", "voxel_leaf"), "voxel edge, meters"),
    ("--base-height", ("height", "base_height"), "robot base height, meters"),
    ("--height-tol", ("height", "tolerance"), "height equality tolerance, meters"),
)
# gen's --seed has no config key, but is read by the same rule as [run] seed.
_parse_seed = TABLE[SEED_FLAG[1]][1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steelnav",
        description="Steel-surface navigation decisions and locomotion simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SyntheticCloudSpec()
    gen = sub.add_parser("gen", help="generate a synthetic cloud file")
    gen.add_argument("--shape", choices=[s.value for s in CloudShape], default=spec.shape.value)
    gen.add_argument("--size-x", type=float, default=spec.size_x, help="extent along x, meters (circle diameter)")
    gen.add_argument("--size-y", type=float, default=spec.size_y, help="extent along y, meters")
    gen.add_argument("--pitch", type=float, default=spec.pitch, help="grid spacing, meters")
    gen.add_argument("--noise", type=float, default=spec.noise_sigma, help="Gaussian noise sigma, meters")
    gen.add_argument(
        "--outlier-frac", type=float, default=spec.outlier_fraction, help="outlier fraction of total points",
    )
    gen.add_argument(
        "--hole-size", type=float, default=spec.hole_size, help="hole edge for rectangle_with_hole, meters",
    )
    gen.add_argument("--tx", type=float, default=0.0, help="pose translation x, meters")
    gen.add_argument("--ty", type=float, default=0.0, help="pose translation y, meters")
    gen.add_argument("--tz", type=float, default=0.0, help="pose translation z, meters")
    gen.add_argument("--rot-yaw", type=float, default=0.0, help="pose yaw, radians")
    gen.add_argument("--rot-pitch", type=float, default=0.0, help="pose pitch, radians")
    gen.add_argument("--rot-roll", type=float, default=0.0, help="pose roll, radians")
    gen.add_argument("--seed", default="0", help="seed of the noise and outlier draws")
    gen.add_argument("--out", required=True, help="output cloud file path")
    gen.set_defaults(handler=_cmd_gen)

    dec = sub.add_parser("decide", help="run the cloud-to-transformation decision")
    dec.add_argument("cloud", help="input cloud file (ascii PCD subset)")
    _add_config_flags(dec, DECIDE_FLAGS + (SEED_FLAG,))
    dec.add_argument("--out", default=None, help="also write the decision JSON here")
    dec.set_defaults(handler=_cmd_decide)

    sim = sub.add_parser("simulate", help="run a closed-loop simulator")
    sim_sub = sim.add_subparsers(dest="simulator", required=True)
    for name, help_text, handler in (
        ("track", "path-tracking drive loop", _cmd_track),
        ("magnet", "magnet gap control loop", _cmd_magnet),
        ("jump", "inch-worm jump state machine and trajectory", _cmd_jump),
    ):
        s = sim_sub.add_parser(name, help=help_text)
        _add_config_flags(s, (SEED_FLAG,))
        s.add_argument("--out", default=None, help="output directory for trace files")
        s.set_defaults(handler=handler)

    bat = sub.add_parser("batch", help="decide over every cloud file in a directory")
    bat.add_argument("indir", help="directory of .pcd cloud files")
    _add_config_flags(bat, (SEED_FLAG,))
    bat.add_argument("--out", required=True, help="output directory for per-file decision JSON")
    bat.set_defaults(handler=_cmd_batch)
    return parser


def _add_config_flags(parser: argparse.ArgumentParser, rows) -> None:
    parser.add_argument("--config", help="INI config file")
    for flag, (section, key), help_text in rows:
        # the dest names the table key; argparse also shows it as the metavar
        parser.add_argument(flag, dest=f"{section}.{key}", help=help_text)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then ``--config``, then the command's override flags."""
    overrides = {}
    for _, (section, key), _ in DECIDE_FLAGS + (SEED_FLAG,):
        value = getattr(args, f"{section}.{key}", None)
        if value is not None:
            overrides[(section, key)] = value
    return load_config(args.config, overrides)


def _decide(cfg: RunConfig, cloud_path) -> SwitchDecision:
    return decide(
        load_cloud(cloud_path),
        filter_cfg=cfg.filter,
        slice_width=cfg.slice_width,
        foot=cfg.foot,
        height_cfg=cfg.height,
        seed=cfg.seed,
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = SyntheticCloudSpec(
        shape=CloudShape(args.shape),
        size_x=args.size_x,
        size_y=args.size_y,
        pitch=args.pitch,
        noise_sigma=args.noise,
        outlier_fraction=args.outlier_frac,
        hole_size=args.hole_size,
        pose=RigidTransform.from_euler_zyx(
            yaw=args.rot_yaw, pitch=args.rot_pitch, roll=args.rot_roll,
            translation=(args.tx, args.ty, args.tz),
        ),
    )
    cloud = generate_cloud(spec, seed=_parse_seed("--seed", args.seed))
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_cloud(out, cloud)
    print(f"wrote {out} points={len(cloud)}")
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    decision = _decide(_load_config(args), args.cloud)
    text = decision_to_json(decision)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_MOBILE if decision.transformation is Transformation.MOBILE else EXIT_INCH_WORM


def _out_dir(arg: Optional[str]) -> Path:
    out = Path(arg) if arg is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_track(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args.out)
    result = simulate_track(**vars(cfg.drive), noise_seed=cfg.seed)
    (out / "track_trace.csv").write_text(trace_to_csv(result), encoding="ascii")
    final_err = result.rows[-1].error.distance if result.rows else 0.0
    print(
        f"converged={str(result.converged).lower()} "
        f"waypoints={result.waypoints_reached}/{len(cfg.drive.waypoints)} "
        f"steps={len(result.rows)} final_error={final_err:.9g}"
    )
    return 0


def _cmd_magnet(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args.out)
    trace = simulate_magnet(**vars(cfg.magnet))
    (out / "magnet_trace.csv").write_text(magnet_trace_to_csv(trace), encoding="ascii")
    final = trace.final_state
    final_err = max(abs(final.gap_left - trace.setpoint), abs(final.gap_right - trace.setpoint))
    settle = f"{trace.settle_time:.9g}" if trace.settle_time is not None else "never"
    print(
        f"settled={str(trace.settled).lower()} settle_time={settle} "
        f"steps={len(trace.rows)} final_error_mm={final_err:.9g}"
    )
    return 0


def _cmd_jump(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args.out)
    jp = cfg.jump
    state, rows = run_jump_sequence(initial_jump_state(), jp.events)
    (out / "jump_trace.jsonl").write_text(jump_trace_to_jsonl(rows), encoding="ascii")
    path = plan_jump_trajectory(jp.start_joints, None, jp.plan, jp.steps)
    (out / "jump_trajectory.csv").write_text(trajectory_to_csv(path), encoding="ascii")
    accepted = sum(1 for r in rows if r["accepted"])
    print(
        f"final_phase={state.phase.value} accepted={accepted}/{len(rows)} "
        f"trajectory_rows={len(path)}"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    indir = Path(args.indir)
    if not indir.is_dir():
        raise NavError(f"not a directory: {indir}")
    out = _out_dir(args.out)
    cloud_paths = sorted(indir.glob("*.pcd"))
    if not cloud_paths:
        raise NavError(f"no .pcd files in {indir}")
    for path in cloud_paths:
        decision = _decide(cfg, path)
        (out / f"{path.stem}.json").write_text(decision_to_json(decision) + "\n", encoding="utf-8")
        print(f"{path.name} {decision.transformation.value}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (NavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
