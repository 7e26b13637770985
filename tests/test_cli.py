"""End-to-end tests for the command-line interface."""

import json

import pytest

from steelnav.cli import DECIDE_FLAGS, EXIT_ERROR, EXIT_INCH_WORM, EXIT_MOBILE, SEED_FLAG, main
from steelnav.config import TABLE


def gen_square(tmp_path, name="square.pcd", extra=()):
    path = tmp_path / name
    code = main(["gen", "--out", str(path), *extra])
    assert code == 0
    return path


def test_gen_reports_point_count(tmp_path, capsys):
    path = gen_square(tmp_path)
    out = capsys.readouterr().out
    assert f"wrote {path} points=961" in out
    assert path.exists()


def test_gen_is_byte_deterministic(tmp_path):
    a = gen_square(tmp_path, "a.pcd", ["--noise", "0.002", "--seed", "3"])
    b = gen_square(tmp_path, "b.pcd", ["--noise", "0.002", "--seed", "3"])
    c = gen_square(tmp_path, "c.pcd", ["--noise", "0.002", "--seed", "4"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_decide_square_is_mobile(tmp_path, capsys):
    path = gen_square(tmp_path)
    capsys.readouterr()
    code = main(["decide", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_MOBILE == 0
    wire = json.loads(out)
    assert wire["s"] is True
    assert wire["transformation"] == "Mobile"
    assert wire["pose"] is not None


def test_decide_lowered_square_is_inch_worm(tmp_path, capsys):
    path = gen_square(tmp_path, extra=["--tz", "-0.07"])
    capsys.readouterr()
    code = main(["decide", str(path)])
    wire = json.loads(capsys.readouterr().out)
    assert code == EXIT_INCH_WORM == 10
    assert wire["s_pa"] is True
    assert wire["s_am"] is True
    assert wire["s_hc"] is False
    assert wire["transformation"] == "InchWorm"
    assert wire["diagnostics"]["height_delta_m"] == pytest.approx(-0.07, abs=1e-3)


def test_decide_narrow_strip_rejects_foot(tmp_path, capsys):
    path = gen_square(tmp_path, "strip.pcd", ["--shape", "strip", "--size-x", "0.40", "--size-y", "0.05"])
    capsys.readouterr()
    code = main(["decide", str(path)])
    wire = json.loads(capsys.readouterr().out)
    assert code == EXIT_INCH_WORM
    assert wire["s_am"] is False
    assert wire["pose"] is None


def test_decide_writes_out_file(tmp_path, capsys):
    path = gen_square(tmp_path)
    out_json = tmp_path / "decision.json"
    capsys.readouterr()
    main(["decide", str(path), "--out", str(out_json)])
    stdout = capsys.readouterr().out
    assert out_json.read_text(encoding="utf-8") == stdout


def test_decide_stdout_is_stable(tmp_path, capsys):
    path = gen_square(tmp_path)
    capsys.readouterr()
    main(["decide", str(path)])
    first = capsys.readouterr().out
    main(["decide", str(path)])
    second = capsys.readouterr().out
    assert first == second


def test_decide_missing_cloud_exits_2(tmp_path, capsys):
    code = main(["decide", str(tmp_path / "nope.pcd")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR == 2
    assert "error:" in err


def test_decide_malformed_cloud_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pcd"
    bad.write_text("DATA binary\n", encoding="ascii")
    code = main(["decide", str(bad)])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    path = gen_square(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[foot]\nwidth = 0.5\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["decide", str(path), "--config", str(cfg)]) == EXIT_INCH_WORM
    capsys.readouterr()
    assert main(["decide", str(path), "--config", str(cfg), "--foot-w", "0.1"]) == EXIT_MOBILE


def test_bad_config_exits_2(tmp_path, capsys):
    path = gen_square(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[typo]\nx = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["decide", str(path), "--config", str(cfg)]) == EXIT_ERROR


def test_usage_error_exits_2(capsys):
    assert main(["decide"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_simulate_track_writes_trace(tmp_path, capsys):
    code = main(["simulate", "track", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged=true" in out
    assert "waypoints=1/1" in out
    trace = (tmp_path / "track_trace.csv").read_text(encoding="ascii")
    assert trace.splitlines()[0] == "t,x,y,phi,e1,e2,e3,v,omega,waypoint_index"
    assert len(trace.splitlines()) > 100


def test_simulate_track_honors_config_waypoints(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drive]\nwaypoints = 0.3 0 ; 0.3 0.3\n", encoding="utf-8")
    code = main(["simulate", "track", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "waypoints=2/2" in out


def test_simulate_magnet_writes_trace(tmp_path, capsys):
    code = main(["simulate", "magnet", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "settled=true" in out
    trace = (tmp_path / "magnet_trace.csv").read_text(encoding="ascii")
    assert trace.splitlines()[0] == "t,gap_left_mm,gap_right_mm,command"
    assert len(trace.splitlines()) == 401


def test_simulate_jump_writes_trace_and_trajectory(tmp_path, capsys):
    code = main(["simulate", "jump", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "final_phase=MobileReformed" in out
    assert "accepted=6/6" in out
    rows = [json.loads(line) for line in (tmp_path / "jump_trace.jsonl").read_text().splitlines()]
    assert len(rows) == 6
    assert all(row["accepted"] for row in rows)
    trajectory = (tmp_path / "jump_trajectory.csv").read_text(encoding="ascii")
    assert len(trajectory.splitlines()) == 19


def test_simulate_jump_rejects_unknown_event(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[jump]\nevents = Fly\n", encoding="utf-8")
    code = main(["simulate", "jump", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "unknown jump event" in capsys.readouterr().err


def test_batch_decides_every_cloud(tmp_path, capsys):
    indir = tmp_path / "clouds"
    indir.mkdir()
    gen_square(indir, "flat.pcd")
    gen_square(indir, "low.pcd", ["--tz", "-0.07"])
    outdir = tmp_path / "out"
    capsys.readouterr()
    code = main(["batch", str(indir), "--out", str(outdir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "flat.pcd Mobile" in out
    assert "low.pcd InchWorm" in out
    flat = json.loads((outdir / "flat.json").read_text(encoding="utf-8"))
    low = json.loads((outdir / "low.json").read_text(encoding="utf-8"))
    assert flat["transformation"] == "Mobile"
    assert low["transformation"] == "InchWorm"


def test_batch_empty_dir_exits_2(tmp_path, capsys):
    indir = tmp_path / "empty"
    indir.mkdir()
    assert main(["batch", str(indir), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    capsys.readouterr()


def test_batch_missing_dir_exits_2(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "nope"), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    capsys.readouterr()


def test_gen_cloud_round_trips_through_decide(tmp_path, capsys):
    # noisy, outlier-laden cloud still yields a clean plane decision
    path = gen_square(tmp_path, "noisy.pcd", ["--noise", "0.002", "--outlier-frac", "0.2", "--seed", "5"])
    capsys.readouterr()
    code = main(["decide", str(path)])
    wire = json.loads(capsys.readouterr().out)
    assert code in (EXIT_MOBILE, EXIT_INCH_WORM)
    assert wire["s_pa"] is True


@pytest.mark.parametrize("simulator, ini", [
    ("track", "[drive]\nhorizon = inf\n"),
    ("magnet", "[magnet]\nduration = nan\n"),
    ("magnet", "[magnet]\ndt = 0\n"),
    ("magnet", "[magnet]\ndt = -0.01\n"),
    ("track", "[drive]\nhorizon = 1e308\n"),
    ("track", "[drive]\nhorizon = 1e12\n"),
    ("magnet", "[magnet]\nduration = 1e308\n"),
    ("magnet", "[magnet]\nduration = 1e12\n"),
], ids=["horizon-inf", "duration-nan", "magnet-dt-zero", "magnet-dt-negative",
        "horizon-1e308", "horizon-1e12", "duration-1e308", "duration-1e12"])
def test_simulate_bad_config_value_exits_2(tmp_path, capsys, simulator, ini):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini, encoding="utf-8")
    code = main(["simulate", simulator, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("simulator, ini, message", [
    ("magnet", "[magnet]\nout_limit = 1.5\n", "motor command must lie in [-1, 1]"),
    ("magnet", "[magnet]\nsetpoint = -0.5\n", "gap setpoint cannot be negative"),
    ("track", "[drive]\nnoise_sigma = -0.5\n", "noise_sigma must be non-negative"),
    ("track", "[drive]\nnoise_sigma = 1e308\n", "error: pose components must be finite"),
], ids=["magnet-out-limit-above-1", "magnet-setpoint-negative", "noise-sigma-negative", "noise-sigma-1e308"])
def test_simulate_rejected_run_exits_2(tmp_path, capsys, simulator, ini, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini, encoding="utf-8")
    code = main(["simulate", simulator, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert message in capsys.readouterr().err


def test_decide_non_finite_flag_exits_2(tmp_path, capsys):
    path = gen_square(tmp_path)
    capsys.readouterr()
    assert main(["decide", str(path), "--voxel-leaf", "nan"]) == EXIT_ERROR
    assert "[filter] voxel_leaf: not a finite number" in capsys.readouterr().err


def test_decide_voxel_leaf_overflowing_int64_exits_2(tmp_path, capsys):
    path = gen_square(tmp_path)
    capsys.readouterr()
    assert main(["decide", str(path), "--voxel-leaf", "1e-300"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: voxel leaf 1e-300 m is too small for this cloud: voxel indices overflow int64\n"


def test_decide_non_ascii_cloud_names_the_line(tmp_path, capsys):
    path = gen_square(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[14] = lines[14] + b" \xc2\xb5"
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["decide", str(path)]) == EXIT_ERROR
    assert f"{path}:15: non-ASCII byte" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = gen_square(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(b"[foot]\nwidth = 0.1 # \xff\n")
    capsys.readouterr()
    assert main(["decide", str(path), "--config", str(cfg)]) == EXIT_ERROR
    assert "not UTF-8" in capsys.readouterr().err


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    path = gen_square(tmp_path)
    capsys.readouterr()

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 121. GiB")

    monkeypatch.setattr("steelnav.cli.decide", exhausted)
    assert main(["decide", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 121. GiB\n"


def test_override_flags_name_table_keys():
    assert len(DECIDE_FLAGS) == 10
    for _, key, _ in DECIDE_FLAGS + (SEED_FLAG,):
        assert key in TABLE


def test_seed_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 1\n[drive]\nnoise_sigma = 0.01\n", encoding="utf-8")
    traces = []
    for extra in ([], ["--seed", "1"], ["--seed", "2"]):
        out = tmp_path / f"run{len(traces)}"
        assert main(["simulate", "track", "--config", str(cfg), "--out", str(out), *extra]) == 0
        traces.append((out / "track_trace.csv").read_text(encoding="ascii"))
    capsys.readouterr()
    assert traces[0] == traces[1] != traces[2]
