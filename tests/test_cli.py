import json

import pytest

from parkcp import cli
from parkcp.channel import CommZone
from parkcp.cli import main

CIRCUIT_CONFIG = {
    "seed": 7,
    "n_runs": 2,
    "zone": {"radius": 15.0},
    "noise": {"range_std": 4.0, "gps_std": 6.0, "velocity_std": 0.5},
    "scenario": {
        "kind": "circuit",
        "duration": 40,
        "n_parked": 6,
        "parked_spacing": 80.0,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(CIRCUIT_CONFIG))
    return str(path)


def test_gen_writes_trace_and_prints_counts(tmp_path, config_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["gen", "--config", config_path, "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "7 vehicles" in captured
    assert "parked=6" in captured
    assert out.read_text().startswith("t,id,x,y,vx,vy,kind\n")


def test_gen_seed_determinism(tmp_path, config_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen", "--config", config_path, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["gen", "--config", config_path, "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_kind_and_seed_flags_act_as_the_files_values(tmp_path, config_path):
    flagged = tmp_path / "flagged.csv"
    assert main(["gen", "--config", config_path, "--out", str(flagged),
                 "--kind", "town", "--seed", "3"]) == 0
    for kind in ("town", "no-such-kind"):  # a flag replaces the file's value before the check
        config = json.loads(json.dumps(CIRCUIT_CONFIG))
        config["scenario"].update(kind=kind, seed=3)
        path = tmp_path / "named.cfg"
        path.write_text(json.dumps(config))
        named = tmp_path / "named.csv"
        assert main(["gen", "--config", str(path), "--out", str(named), "--kind", "town"]) == 0
        assert named.read_bytes() == flagged.read_bytes()


def test_gen_missing_config_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_gen_nonexistent_config_exits_2(tmp_path, capsys):
    code = main(["gen", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    bad = dict(CIRCUIT_CONFIG)
    bad["tpyo"] = 1
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(bad))
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize(
    "section", ["zone", "noise", "policy", "gcpso", "ekf", "scenario", "coverage"]
)
def test_unknown_section_key_rejected(tmp_path, capsys, section):
    bad = json.loads(json.dumps(CIRCUIT_CONFIG))
    bad.setdefault(section, {})["tpyo"] = 1
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(bad))
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"unknown {section} keys: tpyo" in capsys.readouterr().err


def sim_configs(tmp_path, monkeypatch, config, *flags):
    """Run ``parkcp sim`` on ``config``; returns (exit code, RunConfigs used)."""
    seen = []

    def recording_ensemble(cfg, *args, **kwargs):
        seen.append(cfg)
        return real_ensemble(cfg, *args, **kwargs)

    real_ensemble = cli.ensemble
    monkeypatch.setattr(cli, "ensemble", recording_ensemble)
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(config))
    code = main(["sim", "--config", str(path), "--out", str(tmp_path / "r.csv"),
                 "--algorithm", "ekf", "--n-runs", "1", *flags])
    return code, seen


def test_sim_ekf_velocity_noise_follows_world_noise(tmp_path, monkeypatch):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["noise"]["velocity_std"] = 2.0
    code, seen = sim_configs(tmp_path, monkeypatch, config)
    assert code == 0
    assert seen[0].ekf.velocity_std == 2.0


def test_sim_partial_ekf_section_overrides_only_its_keys(tmp_path, monkeypatch):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["noise"]["velocity_std"] = 2.0
    config["scenario"]["step_seconds"] = 0.5
    config["ekf"] = {"process_std": 3.0}
    code, seen = sim_configs(tmp_path, monkeypatch, config, "--sigma-r", "0.2")
    assert code == 0
    ekf = seen[0].ekf
    assert (ekf.range_std, ekf.process_std, ekf.velocity_std, ekf.step_seconds) == (
        0.2, 3.0, 2.0, 0.5
    )
    config["ekf"] = {"velocity_std": 0.7}
    code, seen = sim_configs(tmp_path, monkeypatch, config)
    assert code == 0
    assert seen[0].ekf.velocity_std == 0.7


def test_sim_zone_section_without_radius_defaults_to_15m(tmp_path, monkeypatch):
    config = dict(CIRCUIT_CONFIG, zone={"drop_probability": 0.1})
    code, seen = sim_configs(tmp_path, monkeypatch, config)
    assert code == 0
    assert seen[0].zone == CommZone(15.0, drop_probability=0.1)
    code, seen = sim_configs(tmp_path, monkeypatch, config, "--zone", "100")
    assert code == 0
    assert seen[0].zone == CommZone(100.0, drop_probability=0.1)


@pytest.mark.parametrize("section, values", [
    ("gcpso", {"particles": "4"}),
    ("gcpso", {"particles": 4.5}),
    ("policy", {"anchors_preloaded": 1}),
    ("scenario", {"duration": "40"}),
    ("scenario", {"circuit": 5}),
    ("policy", {"mode": "bogus"}),
    ("zone", {"radius": -1.0}),
], ids=["str-int", "float-int", "int-bool", "str-duration", "int-circuit", "bad-mode",
        "negative-radius"])
def test_sim_bad_section_value_is_a_config_error(tmp_path, capsys, section, values):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config.setdefault(section, {}).update(values)
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(config))
    code = main(["sim", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and section in err


@pytest.mark.parametrize("values, key", [
    ({"area": [0, 0, 500]}, "area"),
    ({"area": [0, 0, 500, 400, 1]}, "area"),
    ({"area": [0, 0, 0, 400]}, "area"),
    ({"choke_points": [[250, 200, 10, 0]]}, "choke_points"),
    ({"choke_points": [[250, 200, 0, 5]]}, "choke_points"),
], ids=["area-3", "area-5", "area-degenerate", "hold-0", "radius-0"])
def test_sim_bad_town_geometry_names_the_key(tmp_path, capsys, values, key):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["scenario"] = {"kind": "town", "duration": 20, "n_moving": 2, "n_parked": 4,
                          **values}
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(config))
    code = main(["sim", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "trace" not in err


def test_sim_row_accounting(tmp_path, config_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    # header + 1 vehicle x 2 algorithms x 2 modes x 1 sigma
    assert len(lines) == 1 + 4
    assert "gcpso" in capsys.readouterr().out


def test_sim_algorithm_filter(tmp_path, config_path):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out),
                 "--algorithm", "ekf", "--sigma-r", "0.2"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2
    assert all("ekf" in line for line in lines[1:])
    assert all("gcpso" not in line for line in lines[1:])


def _sim_rows(tmp_path, config, *flags):
    """(exit code, result rows) of ``parkcp sim`` on ``config``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", str(path), "--out", str(out), "--n-runs", "1", *flags])
    rows = out.read_text().strip().splitlines()[1:] if code == 0 else []
    return code, rows


@pytest.mark.parametrize("in_config,flag,expected", [
    ("ekf", None, {"ekf"}),
    ("gcpso", None, {"gcpso"}),
    ("both", None, {"gcpso", "ekf"}),
    ("ekf", "gcpso", {"gcpso"}),
    (None, None, {"gcpso", "ekf"}),
])
def test_sim_algorithm_from_flag_then_config_then_both(tmp_path, in_config, flag, expected):
    config = dict(CIRCUIT_CONFIG)
    if in_config is not None:
        config["algorithm"] = in_config
    code, rows = _sim_rows(tmp_path, config, *(["--algorithm", flag] if flag else []))
    assert code == 0
    assert {row.split(",")[2] for row in rows} == expected


@pytest.mark.parametrize("value", ["pso", 1, None])
def test_sim_rejects_bad_config_algorithm(tmp_path, capsys, value):
    code, _ = _sim_rows(tmp_path, {**CIRCUIT_CONFIG, "algorithm": value})
    assert code == 2
    assert "algorithm" in capsys.readouterr().err


def test_sim_int_config_values_print_as_floats(tmp_path):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["zone"] = {"radius": 100}
    config["noise"]["range_std"] = 4
    code, from_config = _sim_rows(tmp_path, config, "--algorithm", "ekf")
    assert code == 0
    assert {tuple(row.split(",")[3:5]) for row in from_config} == {("4.0", "100.0")}
    code, from_flags = _sim_rows(tmp_path, CIRCUIT_CONFIG, "--algorithm", "ekf",
                                 "--zone", "100", "--sigma-r", "4")
    assert code == 0
    assert from_config == from_flags


def test_sim_exact_traditional_runs_print_a_nan_improvement(tmp_path):
    config = {**CIRCUIT_CONFIG, "noise": {"range_std": 4, "gps_std": 0, "velocity_std": 0}}
    code, rows = _sim_rows(tmp_path, config)
    assert code == 0
    fields = [row.split(",") for row in rows]
    assert {f[2] for f in fields} == {"gcpso", "ekf"}
    assert all(f[7] == "nan" for f in fields if f[1] == "proposed")
    assert all(f[5] == "0.000000" for f in fields if f[1] == "traditional")


def test_config_int_too_large_for_a_float_field_is_a_config_error(tmp_path, capsys):
    code, _ = _sim_rows(tmp_path, {**CIRCUIT_CONFIG, "zone": {"radius": 10**400}})
    assert code == 2
    assert "zone key 'radius' is out of range" in capsys.readouterr().err


def test_config_ints_become_floats_for_float_fields_only(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CIRCUIT_CONFIG, "coverage": {"cell_size": 2},
                                "ekf": {"process_std": 3}}))
    raw = cli.load_config(str(path))
    assert raw["coverage"]["cell_size"] == 2.0 and type(raw["coverage"]["cell_size"]) is float
    assert type(raw["ekf"]["process_std"]) is float
    assert type(raw["scenario"]["duration"]) is int and type(raw["n_runs"]) is int


def test_sim_without_sigma_flag_uses_the_files_range_std(tmp_path):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["noise"]["range_std"] = 2.5  # not the NoiseModel default
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(config))
    outputs = []
    for flags in ([], ["--sigma-r", "2.5"]):
        out = tmp_path / f"results{len(outputs)}.csv"
        assert main(["sim", "--config", str(path), "--out", str(out), "--algorithm", "ekf",
                     "--n-runs", "1", "--dump-steps", *flags]) == 0
        steps = out.with_suffix(".steps.csv").read_bytes()
        outputs.append((out.read_bytes(), steps))
    assert outputs[0] == outputs[1]
    assert {line.split(b",")[1] for line in outputs[0][1].splitlines()[1:]} == {b"2.5"}


def test_sim_mode_filter(tmp_path, config_path):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out),
                 "--algorithm", "ekf", "--mode", "proposed"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 1
    assert ",proposed," in lines[1]


def test_sim_sigma_repeatable(tmp_path, config_path):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out),
                 "--algorithm", "ekf", "--sigma-r", "0.2", "--sigma-r", "4"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4


def test_sim_dump_steps(tmp_path, config_path):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out),
                 "--algorithm", "ekf", "--dump-steps"])
    assert code == 0
    steps = tmp_path / "results.steps.csv"
    assert steps.exists()
    lines = steps.read_text().strip().splitlines()
    assert lines[0] == "algorithm,sigma_r,mode,run,vehicle,step,error"
    # 2 runs x 2 modes x 40 steps for the single tracked vehicle
    assert len(lines) == 1 + 2 * 2 * 40


def test_sim_with_explicit_trace(tmp_path, config_path):
    trace = tmp_path / "trace.csv"
    assert main(["gen", "--config", config_path, "--out", str(trace)]) == 0
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--trace", str(trace),
                 "--out", str(out), "--algorithm", "ekf"])
    assert code == 0
    assert out.exists()


def test_sim_jobs_byte_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r8.csv"
    args = ["sim", "--config", config_path, "--algorithm", "ekf"]
    assert main(args + ["--out", str(out1), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


AREA_CSV = (
    "polygon,x,y\n"
    "0,0.0,0.0\n0,100.0,0.0\n0,100.0,100.0\n0,0.0,100.0\n"
)
PARKED_CSV = "x,y\n50.0,50.0\n"


def test_coverage_class_a_uses_15m(tmp_path, capsys):
    area = tmp_path / "area.csv"
    parked = tmp_path / "parked.csv"
    area.write_text(AREA_CSV)
    parked.write_text(PARKED_CSV)
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--area", str(area), "--parked", str(parked),
                 "--class", "A", "--cell-size", "0.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    radius, level3, level2, level1, uncovered = lines[1].split(",")
    assert float(radius) == 15.0
    import math
    assert abs(float(level1) - math.pi * 15**2 / 10_000) < 0.002


def test_coverage_multi_radius(tmp_path):
    area = tmp_path / "area.csv"
    parked = tmp_path / "parked.csv"
    area.write_text(AREA_CSV)
    parked.write_text(PARKED_CSV)
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--area", str(area), "--parked", str(parked),
                 "--radius", "15", "--radius", "100", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_coverage_accepts_trace_as_parked_source(tmp_path, config_path):
    trace = tmp_path / "trace.csv"
    assert main(["gen", "--config", config_path, "--out", str(trace)]) == 0
    area = tmp_path / "area.csv"
    area.write_text(
        "polygon,x,y\n0,-20.0,-20.0\n0,180.0,-20.0\n0,180.0,100.0\n0,-20.0,100.0\n"
    )
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--area", str(area), "--parked", str(trace),
                 "--radius", "15", "--out", str(out)])
    assert code == 0
    line = out.read_text().strip().splitlines()[1]
    assert float(line.split(",")[4]) < 1.0  # six parked cars cover something


def test_coverage_cell_size_from_config(tmp_path):
    area = tmp_path / "area.csv"
    parked = tmp_path / "parked.csv"
    area.write_text(AREA_CSV)
    parked.write_text(PARKED_CSV)
    cfgfile = tmp_path / "cov.cfg"
    cfgfile.write_text(json.dumps({"coverage": {"cell_size": 0.1}}))
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(["coverage", "--area", str(area), "--parked", str(parked),
                 "--radius", "15", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["coverage", "--area", str(area), "--parked", str(parked),
                 "--radius", "15", "--cell-size", "0.1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_coverage_cell_size_flag_over_config_and_config_always_read(tmp_path, capsys):
    area = tmp_path / "area.csv"
    parked = tmp_path / "parked.csv"
    area.write_text(AREA_CSV)
    parked.write_text(PARKED_CSV)
    cfgfile = tmp_path / "cov.cfg"
    cfgfile.write_text(json.dumps({"coverage": {"cell_size": 0.1}}))
    base = ["coverage", "--area", str(area), "--parked", str(parked), "--radius", "15",
            "--cell-size", "0.5"]
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(base + ["--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    cfgfile.write_text(json.dumps({"coverage": {"cell_size": 0.1, "tpyo": 1}}))
    assert main(base + ["--config", str(cfgfile), "--out", str(out1)]) == 2
    assert "unknown coverage keys: tpyo" in capsys.readouterr().err


def test_coverage_requires_radius_or_class(tmp_path, capsys):
    area = tmp_path / "area.csv"
    parked = tmp_path / "parked.csv"
    area.write_text(AREA_CSV)
    parked.write_text(PARKED_CSV)
    code = main(["coverage", "--area", str(area), "--parked", str(parked),
                 "--out", str(tmp_path / "cov.csv")])
    assert code == 2
    assert "radius" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--nonsense"])
    assert exc.value.code == 2


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--seed", "--jobs", "--algorithm",
                 "--mode", "--sigma-r", "--zone", "--n-runs", "--dump-steps"):
        assert flag in out


def test_sim_header_only_trace_is_a_config_error(tmp_path, config_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,x,y,vx,vy,kind\n")
    code = main(["sim", "--config", config_path, "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error: trace has no vehicles" in capsys.readouterr().err


def test_coverage_accepts_trace_with_byte_order_mark_as_parked_source(tmp_path, config_path):
    trace = tmp_path / "trace.csv"
    assert main(["gen", "--config", config_path, "--out", str(trace)]) == 0
    bom_trace = tmp_path / "bom.csv"
    bom_trace.write_text("\ufeff" + trace.read_text(encoding="utf-8"), encoding="utf-8")
    area = tmp_path / "area.csv"
    area.write_text(AREA_CSV)
    outputs = []
    for parked in (trace, bom_trace):
        out = tmp_path / f"cov-{parked.stem}.csv"
        assert main(["coverage", "--area", str(area), "--parked", str(parked),
                     "--radius", "15", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_non_finite_number_is_a_config_error(tmp_path, capsys, literal):
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(CIRCUIT_CONFIG)[:-1] + f', "zone": {{"radius": {literal}}}}}')
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"config file {path} has a non-finite number: {literal}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    ("sim", "--sigma-r"), ("sim", "--zone"), ("coverage", "--radius"),
    ("coverage", "--cell-size"),
])
def test_float_flags_reject_non_finite_values(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: not a finite number: {value!r}" in capsys.readouterr().err


def test_float_flags_keep_the_message_for_text(capsys):
    with pytest.raises(SystemExit):
        main(["sim", "--zone", "wide"])
    assert "argument --zone: invalid float value: 'wide'" in capsys.readouterr().err
