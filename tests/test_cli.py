import json
from collections import defaultdict

import pytest

from parkcp import cli
from parkcp.channel import CommZone
from parkcp.cli import main
from parkcp.errors import ConfigError
from parkcp.harness import Algorithm, RunConfig

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


def sim_configs(tmp_path, monkeypatch, config, *flags,
                base=("--algorithm", "ekf", "--n-runs", "1")):
    """Run ``parkcp sim`` on ``config`` with the ``base`` flags, then
    ``flags``; returns (exit code, RunConfigs used)."""
    seen = []

    def recording_ensemble(cfg, *args, **kwargs):
        seen.append(cfg)
        return real_ensemble(cfg, *args, **kwargs)

    real_ensemble = cli.ensemble
    monkeypatch.setattr(cli, "ensemble", recording_ensemble)
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(config))
    code = main(["sim", "--config", str(path), "--out", str(tmp_path / "r.csv"), *base, *flags])
    return code, seen


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_sim_with_an_empty_config_runs_the_default_run_config(tmp_path, monkeypatch,
                                                              config_path, algorithm):
    trace = tmp_path / "trace.csv"  # a short trace keeps the 40 default runs cheap
    assert main(["gen", "--config", config_path, "--out", str(trace)]) == 0
    code, seen = sim_configs(tmp_path, monkeypatch, {}, "--trace", str(trace),
                             base=("--algorithm", algorithm.value))
    assert code == 0
    assert seen == [RunConfig(algorithm=algorithm)]


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
    ("gcpso", {"fitness_stop": 0.0}),
], ids=["str-int", "float-int", "int-bool", "str-duration", "int-circuit", "bad-mode",
        "negative-radius", "fitness-stop"])
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


@pytest.mark.parametrize("values, message", [
    ({"choke_points": [[70, "60", 8, 15]]}, "'choke_points' entries must be float, got '60'"),
    ({"choke_points": [[70, 60, True, 15]]}, "'choke_points' entries must be float, got True"),
    ({"choke_points": [[70, 60, 8, 2.9]]}, "'choke_points' entries must be int, got 2.9"),
    ({"choke_points": [[70, 60, 8, 15.0]]}, "'choke_points' entries must be int, got 15.0"),
    ({"choke_points": [[70, 60, 8, False]]}, "'choke_points' entries must be int, got False"),
    ({"area": [0, 0, "500", 400]}, "'area' entries must be float, got '500'"),
    ({"area": [0, False, 500, 400]}, "'area' entries must be float, got False"),
    ({"circuit": [[0, 0], [100, "0"], [100, 100]]}, "'circuit' entries must be float, got '0'"),
    ({"area": [0, 0, 10**400, 400]}, "scenario key 'area' is out of range: 1000"),
    ({"circuit": [[0, 0], [-10**400, 0], [0, 100]]}, "scenario key 'circuit' is out of range"),
    ({"choke_points": [[10**400, 60, 8, 15]]}, "scenario key 'choke_points' is out of range"),
], ids=["str-x", "bool-radius", "float-hold", "integral-float-hold", "bool-hold", "str-area",
        "bool-area", "str-circuit", "huge-area", "huge-circuit", "huge-choke"])
def test_sim_structured_values_take_json_numbers_only(tmp_path, capsys, values, message):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["scenario"] = {"kind": "town", "duration": 20, "n_moving": 2, "n_parked": 4,
                          **values}
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(config))
    code = main(["sim", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["sim", "gen"])
@pytest.mark.parametrize("values, message", [
    ({"choke_points": [[1, 2, 3]]},
     "scenario key 'choke_points' entries must be an array of 4, got [1, 2, 3]"),
    ({"choke_points": [[1, 2, 3, 4, 5]]},
     "scenario key 'choke_points' entries must be an array of 4"),
    ({"choke_points": [5]}, "scenario key 'choke_points' entries must be an array of 4, got 5"),
    ({"choke_points": {"x": 1}}, "scenario key 'choke_points' must be an array, got {'x': 1}"),
    ({"circuit": [[0, 0], [1, 2, 3], [4, 5]]},
     "scenario key 'circuit' entries must be an array of 2, got [1, 2, 3]"),
    ({"circuit": [[0, 0], [1], [4, 5]]}, "scenario key 'circuit' entries must be an array of 2"),
    ({"circuit": [5, 6]}, "scenario key 'circuit' entries must be an array of 2, got 5"),
    ({"circuit": 5}, "scenario key 'circuit' must be an array, got 5"),
    ({"area": 5}, "scenario key 'area' must be an array, got 5"),
], ids=["choke-3", "choke-5", "choke-number", "choke-object", "circuit-3", "circuit-1",
        "circuit-numbers", "circuit-number", "area-number"])
def test_structured_values_of_the_wrong_shape_name_the_key(tmp_path, capsys, command, values,
                                                           message):
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["scenario"] = {"kind": "town", "duration": 20, "n_moving": 2, "n_parked": 4,
                          **values}
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")


def test_structured_json_ints_configure_as_floats(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {
        "area": [0, 0, 500, 400], "circuit": [[0, 0], [100, 0.5]],
        "choke_points": [[70, 60.5, 8, 15]],
    }}))
    scenario = cli._scenario(cli.load_config(str(path)))
    assert [type(c) for c in scenario.area] == [float] * 4
    assert [type(c) for p in scenario.circuit for c in p] == [float] * 4
    choke, = scenario.choke_points
    assert choke == (70.0, 60.5, 8.0, 15) and type(choke.x) is float and type(choke.hold_steps) is int


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


def test_sim_policy_mode_is_an_unknown_key(tmp_path, capsys):
    # each paired run has both modes; a file cannot choose one
    code, _ = _sim_rows(tmp_path, {**CIRCUIT_CONFIG, "policy": {"mode": "traditional"}})
    assert code == 2
    assert "unknown policy keys: mode" in capsys.readouterr().err


def test_sim_ekf_step_must_equal_the_scenario_step(tmp_path, capsys):
    code, _ = _sim_rows(tmp_path, {**CIRCUIT_CONFIG, "ekf": {"step_seconds": 3.0}},
                        "--algorithm", "ekf")
    assert code == 2
    err = capsys.readouterr().err
    assert "ekf.step_seconds 3.0" in err and "scenario.step_seconds 1.0" in err
    config = json.loads(json.dumps(CIRCUIT_CONFIG))
    config["scenario"]["step_seconds"] = 0.5
    config["ekf"] = {"step_seconds": 0.5}
    code, _ = _sim_rows(tmp_path, config, "--algorithm", "ekf")
    assert code == 0


def test_top_level_seed_is_the_default_scenario_seed(tmp_path):
    """The scenario's seed is --seed, else scenario.seed, else the top-level
    seed, else 0."""
    def town(top=None, scenario_seed=None):
        scenario = {"kind": "town", "duration": 20, "n_moving": 2, "n_parked": 4}
        if scenario_seed is not None:
            scenario["seed"] = scenario_seed
        config = {"n_runs": 1, "scenario": scenario}
        return config if top is None else {**config, "seed": top}

    def gen(config, *flags):
        path, out = tmp_path / "town.cfg", tmp_path / "trace.csv"
        path.write_text(json.dumps(config))
        assert main(["gen", "--config", str(path), "--out", str(out), *flags]) == 0
        return out.read_bytes()

    seeded = gen(town(top=7))
    assert seeded != gen(town())
    assert seeded == gen(town(top=7), "--seed", "7") == gen(town(scenario_seed=7))
    assert gen(town(top=7, scenario_seed=3)) == gen(town(scenario_seed=3))
    assert gen(town(top=7, scenario_seed=3), "--seed", "5") == gen(town(scenario_seed=5))
    assert gen(town()) == gen(town(), "--seed", "0")
    # an invalid top-level seed that something overrides is never read
    assert gen(town(top=-1, scenario_seed=5)) == gen(town(scenario_seed=5))
    assert gen(town(top=-1, scenario_seed=5), "--seed", "3") == gen(town(scenario_seed=3))
    # sim seeds the scenario it generates the same way
    assert _sim_rows(tmp_path, town(top=7), "--algorithm", "ekf") == _sim_rows(
        tmp_path, town(top=7), "--algorithm", "ekf", "--seed", "7"
    )


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


def test_sim_writes_both_modes_of_every_vehicle(tmp_path, config_path):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out), "--algorithm", "ekf"])
    assert code == 0
    modes = defaultdict(list)
    for line in out.read_text().strip().splitlines()[1:]:
        vehicle, mode = line.split(",")[:2]
        modes[vehicle].append(mode)
    assert modes
    assert all(m == ["traditional", "proposed"] for m in modes.values())


def test_sim_has_no_mode_flag(tmp_path, config_path):
    out = tmp_path / "results.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--config", config_path, "--out", str(out), "--mode", "proposed"])
    assert exc.value.code == 2
    assert not out.exists()


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sim_jobs_below_one_exits_2(tmp_path, config_path, capsys, jobs):
    out = tmp_path / "results.csv"
    code = main(["sim", "--config", config_path, "--out", str(out), "--jobs", jobs])
    assert code == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["circuit", "town"])
def test_gen_negative_seed_exits_2(tmp_path, config_path, capsys, kind):
    out = tmp_path / "trace.csv"
    code = main(["gen", "--config", config_path, "--out", str(out),
                 "--kind", kind, "--seed", "-1"])
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "sim"])
def test_a_town_step_too_long_for_its_area_exits_2(tmp_path, capsys, command):
    # a walker with no point a step away redrew its goal forever
    path = tmp_path / "town.cfg"
    path.write_text(json.dumps({"scenario": {"kind": "town", "area": [0, 0, 5, 5],
                                             "n_moving": 1, "n_parked": 0, "duration": 10}}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "speed" in err and "area" in err
    assert not out.exists()


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
                 "--sigma-r", "--zone", "--n-runs", "--dump-steps"):
        assert flag in out


def test_sim_header_only_trace_is_a_config_error(tmp_path, config_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,x,y,vx,vy,kind\n")
    code = main(["sim", "--config", config_path, "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error: trace has no vehicles" in capsys.readouterr().err


@pytest.mark.parametrize("row", [f"{2**63},0,1.0,0.0,0.0,0.0,moving",
                                 f"0,{2**63},1.0,0.0,0.0,0.0,moving"])
def test_sim_rejects_a_trace_int_outside_int64_by_its_line(tmp_path, config_path, capsys, row):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"t,id,x,y,vx,vy,kind\n0,0,0.0,0.0,0.0,0.0,moving\n{row}\n")
    code = main(["sim", "--config", config_path, "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 3: t=")


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


@pytest.mark.parametrize("text, match", [
    ('{"seed": 7,', r"config file .*run\.cfg is not valid JSON: Expecting"),
    ("[1, 2]", "config root must be a JSON object"),
    ('{"zone": 15.0}', "config section 'zone' must be an object"),
    ('{"scenario": ["circuit"]}', "config section 'scenario' must be an object"),
], ids=["truncated", "array-root", "number-section", "array-section"])
def test_config_file_of_the_wrong_shape_is_a_config_error(tmp_path, text, match):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        cli.load_config(str(path))


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
