import copy
import numpy as np
import json

import numpy as np
import pytest

from vmlab import ParseError, ValidationError
from vmlab.cli import main as cli_main
from vmlab.harness import (
    PRESETS,
    build_scenario,
    dumps_csv,
    dumps_report,
    emit,
    load_scenario,
    preset_scenario,
    run,
)


def _preset(name):
    return copy.deepcopy(PRESETS[name])


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_preset("canonical-l1")))
    sc = load_scenario(path)
    assert sc.space.n == 4
    assert sc.experiment["kind"] == "martingale"


def test_load_scenario_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,,}')
    with pytest.raises(ParseError, match="line"):
        load_scenario(path)


def test_validation_positive_weights():
    data = _preset("canonical-l1")
    data["space"]["weights"] = [0.25, 0.25, 0.25, 0.0]
    with pytest.raises(ValidationError, match="positive"):
        build_scenario(data)


def test_validation_divisibility():
    data = _preset("canonical-l1")
    data["experiment"]["levels"] = 3
    with pytest.raises(ValidationError, match="divisible"):
        build_scenario(data)


def test_validation_unknown_keys():
    data = _preset("canonical-l1")
    data["surprise"] = 1
    with pytest.raises(ValidationError, match="unknown key"):
        build_scenario(data)
    data = _preset("canonical-l1")
    data["space"]["frobnicate"] = True
    with pytest.raises(ValidationError, match="unknown key"):
        build_scenario(data)
    data = _preset("canonical-l1")
    data["experiment"]["sweep"] = [4]  # daugavet-only parameter on martingale
    with pytest.raises(ValidationError, match="unknown key"):
        build_scenario(data)


def test_validation_function_length():
    data = _preset("canonical-l1")
    data["functions"] = [[1.0, 0.0]]
    with pytest.raises(ValidationError, match="one coefficient per atom"):
        build_scenario(data)


def test_validation_indicator_needs_square():
    data = _preset("canonical-l1")
    data["value_space"] = {"kind": "L1", "d": 3, "scale": 1.0}
    with pytest.raises(ValidationError, match="indicator"):
        build_scenario(data)


def test_run_canonical_martingale_table():
    report = run(preset_scenario("canonical-l1"))
    assert "error" not in report
    rows = report["results"]["rows"]
    assert [r[0] for r in rows] == [0, 1, 2]
    assert [r[3] for r in rows] == pytest.approx([0.375, 0.25, 0.0], abs=1e-15)
    assert all(r[1] <= r[2] + 1e-10 for r in rows)  # norm gap <= deviation


def test_run_daugavet_sweep_defects():
    report = run(preset_scenario("daugavet-sweep"))
    rows = report["results"]["rows"]
    assert [r[0] for r in rows] == [4, 64, 1024]
    assert [r[4] for r in rows] == [0.5, 0.03125, 0.001953125]


def test_run_identity_preset():
    report = run(preset_scenario("rank-one"))
    row = report["results"]["rows"][0]
    assert row[1] == pytest.approx(2.0, abs=1e-12)
    assert row[2] == pytest.approx(2.0, abs=1e-12)
    assert row[4] <= 1e-10
    assert row[5] is True


def test_json_roundtrip_equality(tmp_path):
    report = run(preset_scenario("canonical-l1"))
    path = tmp_path / "report.json"
    emit(report, "json", path)
    parsed = json.loads(path.read_text())
    assert parsed == report  # 17 significant digits round-trip doubles exactly


def test_csv_shape(tmp_path):
    report = run(preset_scenario("canonical-l1"))
    text = dumps_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "level,norm_gap,deviation,pointwise_gap,weakstar_gap"
    assert len(lines) == 4


def test_csv_header_only_for_empty_table():
    data = _preset("random-measure")
    data["functions"] = []
    report = run(build_scenario(data))
    assert dumps_csv(report).strip() == "f_index,value,method,heuristic"


def test_determinism_byte_identical():
    def strip(report):
        clone = copy.deepcopy(report)
        del clone["metadata"]["wall_time_s"]
        return dumps_report(clone)

    for name in PRESETS:
        a = strip(run(preset_scenario(name), seed=123))
        b = strip(run(preset_scenario(name), seed=123))
        assert a == b, name

    # a sweep reports its points in sweep order, each as a one-point sweep would
    def sweep_rows(sizes):
        data = _preset("daugavet-sweep")
        data["experiment"]["sweep"] = sizes
        return run(build_scenario(data))["results"]["rows"]

    rows = sweep_rows([1024, 4, 64])
    assert [row[0] for row in rows] == [1024, 4, 64]
    for row in rows:
        assert repr(sweep_rows([row[0]])) == repr([row])


def test_error_section_preserves_report():
    data = _preset("rank-one")
    data["space"] = {"n": 22, "weights": "uniform"}
    data["value_space"] = {"kind": "l1-of-mu"}
    data["measure"] = {"kind": "rank_one", "g": [1.0] * 22}
    data["functions"] = [[1.0] * 22]
    report = run(build_scenario(data))  # 2^22 dual corners: over capacity
    assert report["error"]["type"] == "CapacityExceeded"
    assert report["metadata"]["seed"] == 0


def test_cli_report_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli_main(["report", "--scenario", "canonical-l1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["experiment"] == "martingale"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["report", "--scenario", str(bad)]) == 1

    data = _preset("canonical-l1")
    data["space"]["weights"] = [1.0, 1.0, 1.0, -1.0]
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(data))
    assert cli_main(["report", "--scenario", str(invalid)]) == 1

    capacity = tmp_path / "capacity.json"
    data = _preset("rank-one")
    data["space"] = {"n": 22, "weights": "uniform"}
    data["measure"] = {"kind": "rank_one", "g": [1.0] * 22}
    data["functions"] = [[1.0] * 22]
    capacity.write_text(json.dumps(data))
    assert cli_main(["report", "--scenario", str(capacity), "--out", str(out)]) == 2
    capsys.readouterr()


def test_cli_subcommand_overrides(tmp_path):
    out = tmp_path / "basis.csv"
    code = cli_main(
        [
            "converge",
            "basis",
            "--scenario",
            "schauder",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "level,norm_gap,deviation,pointwise_gap,weakstar_gap"

    out2 = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "daugavet",
            "--scenario",
            "canonical-l1",
            "--sweep",
            "4,8",
            "--format",
            "csv",
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    lines = out2.read_text().splitlines()
    assert lines[1].startswith("4,") and lines[2].startswith("8,")


def test_cli_preset_dump_validates(tmp_path, capsys):
    assert cli_main(["preset", "canonical-l1"]) == 0
    dumped = capsys.readouterr().out
    build_scenario(json.loads(dumped))
    path = tmp_path / "p.json"
    assert cli_main(["preset", "daugavet-sweep", "--out", str(path)]) == 0
    build_scenario(json.loads(path.read_text()))


def test_identity_cli_lambda(tmp_path):
    out = tmp_path / "id.json"
    assert (
        cli_main(
            ["identity", "--scenario", "rank-one", "--lam", "0.0", "--out", str(out)]
        )
        == 0
    )
    report = json.loads(out.read_text())
    row = report["results"]["rows"][0]
    assert row[0] == 0.0
    assert row[1] == pytest.approx(1.0, abs=1e-12)  # the rank-one map alone has norm 1


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("experiment", "seed", "abc"),
        ("experiment", "seed", 1.5),
        ("experiment", "seed", True),
        ("measure", "seed", "abc"),
        ("measure", "seed", False),
        ("experiment", "restarts", 0),
        ("experiment", "restarts", True),
        ("experiment", "exact_cutoff", "x"),
        ("experiment", "exact_cutoff", -1),
        ("experiment", "tolerance", "x"),
        ("experiment", "tolerance", -1e-10),
        ("experiment", "tolerance", True),
        ("experiment", "samples", "x"),
        ("experiment", "samples", -1),
        # True == 1, so bools must be refused before any range check
        ("daugavet", "sign", True),
        ("daugavet", "sweep", [4, True]),
        ("series_gap", "sign", True),
        ("measure", "k", True),
    ],
)
def test_invalid_numeric_parameters_are_validation_errors(tmp_path, capsys, section, key, value):
    data = _preset("random-measure")
    if key == "samples":
        data = _preset("canonical-l1")
        data["experiment"] = {"kind": "series_gap"}
    if section in ("daugavet", "series_gap"):
        data = _preset("canonical-l1")
        data["experiment"] = {"kind": section}
        section = "experiment"
    if key == "k":
        data["measure"] = {"kind": "composed", "base": {"kind": "random", "seed": 7}, "k": 2}
    data[section][key] = value
    with pytest.raises(ValidationError, match=key):
        build_scenario(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["report", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--exact-cutoff", "-1"), ("--tolerance", "-1e-10")])
def test_cli_overrides_are_validation_errors(capsys, flag, value):
    # flag=value, since argparse reads a lone -1e-10 as an option
    assert cli_main(["report", "--scenario", "canonical-l1", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize(
    "override", [{"seed": 1.5}, {"exact_cutoff": -1}, {"tolerance": -1e-10}, {"tolerance": True}]
)
def test_run_overrides_are_validated(override):
    with pytest.raises(ValidationError, match=next(iter(override))):
        run(preset_scenario("canonical-l1"), **override)


def test_composed_measure_kind():
    data = _preset("schauder")
    data["measure"] = {"kind": "composed", "base": {"kind": "random", "seed": 11}, "k": 2}
    sc = build_scenario(data)
    assert np.array_equal(sc.measure.atoms[:, 2:], np.zeros((4, 2)))
    base = build_scenario(_preset("schauder")).measure
    assert np.array_equal(sc.measure.atoms[:, :2], base.atoms[:, :2])
    data["measure"]["k"] = 9
    with pytest.raises(ValidationError, match="1..d"):
        build_scenario(data)


def test_norm_table_fallback_uses_experiment_seed_and_restarts():
    # support 20 > exact_cutoff 16 on an L2 value space: only hill climbing runs
    rng = np.random.default_rng(31)
    data = {
        "schema_version": 1,
        "space": {"n": 20, "weights": "uniform"},
        "value_space": {"kind": "L2", "d": 4, "scale": 1.0},
        "measure": {"kind": "random", "seed": 5},
        "functions": [rng.normal(size=20).tolist()],
        "experiment": {"kind": "norm", "restarts": 1},
    }
    for seed in (3, 4):
        (row,) = run(build_scenario(data), seed=seed)["results"]["rows"]
        assert row[2] == "heuristic"
        assert row[1] == row[3]


def test_rn_net_expectation_matches_martingale_table():
    data = _preset("canonical-l1")
    data["experiment"] = {"kind": "rn_net", "family": "expectation", "levels": 2}
    rn_rows = run(build_scenario(data))["results"]["rows"]
    martingale_rows = run(preset_scenario("canonical-l1"))["results"]["rows"]
    assert rn_rows == martingale_rows


def test_rn_net_coordinate_runner():
    data = _preset("schauder")
    data["experiment"] = {"kind": "rn_net", "family": "coordinate"}
    report = run(build_scenario(data))
    rows = report["results"]["rows"]
    assert len(rows) == 4
    assert rows[-1][1:] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_series_gap_runner():
    data = _preset("canonical-l1")
    data["experiment"] = {"kind": "series_gap", "sign": -1, "samples": 16}
    report = run(build_scenario(data))
    (row,) = report["results"]["rows"]
    assert row[0] == pytest.approx(2.0, abs=1e-12)
    assert -1e-10 <= row[1] <= 1.0 - 2.0 / 4 + 1e-12


def test_emit_io_error_has_path_context(tmp_path):
    report = run(preset_scenario("canonical-l1"))
    bad = tmp_path / "missing_dir" / "r.json"
    with pytest.raises(OSError, match="missing_dir"):
        emit(report, "json", bad)


def test_presets_complete_quickly():
    import time

    for name in sorted(PRESETS):
        started = time.perf_counter()
        report = run(preset_scenario(name))
        assert "error" not in report, name
        assert time.perf_counter() - started < 10.0, name
