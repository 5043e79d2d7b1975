import argparse
import copy
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from vmlab import CapacityExceeded, MeasureSpace, NormSpec, ParseError, ValidationError
from vmlab.cli import _atom_counts, _build_parser
from vmlab.cli import main as cli_main
from vmlab.daugavet import FactoredOperator, OperatorMatrix, series_approximation_gap
from vmlab.harness import (
    EXPERIMENTS,
    PRESETS,
    build_scenario,
    dumps_csv,
    dumps_report,
    emit,
    read_scenario,
    run,
)
from vmlab.rng import NORMALS_LIMIT, SplitMix64


def _preset(name):
    return copy.deepcopy(PRESETS[name])


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_preset("canonical-l1")))
    sc = build_scenario(read_scenario(path))
    assert sc.measure.space.n == 4
    assert sc.experiment["kind"] == "martingale"


def test_load_scenario_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,,}')
    with pytest.raises(ParseError, match="line"):
        read_scenario(path)


def test_a_scenario_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(_preset("canonical-l1")).encode("utf-16-le"))
    with pytest.raises(ParseError, match=f"scenario {re.escape(str(path))} is not UTF-8"):
        read_scenario(path)
    assert cli_main(["report", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("scale", [1, [1.0, 1.0, 1.0], [1, 1, 1]])
def test_value_space_scales_equal_to_one_keep_the_report_bits(scale):
    data = _preset("random-measure")
    data["value_space"]["scale"] = scale
    want = dumps_report({"results": run(build_scenario(PRESETS["random-measure"]))["results"]})
    assert dumps_report({"results": run(build_scenario(data))["results"]}) == want


def test_validation_positive_weights():
    data = _preset("canonical-l1")
    data["space"]["weights"] = [0.25, 0.25, 0.25, 0.0]
    with pytest.raises(ValidationError, match="positive"):
        build_scenario(data)


def test_weights_given_as_an_array_build_as_the_list():
    data = _preset("canonical-l1")
    data["space"]["weights"] = [1.0, 2.0, 0.5, 3.0]
    want = build_scenario(data)
    data["space"]["weights"] = np.array([1.0, 2.0, 0.5, 3.0])
    got = build_scenario(data)
    assert got.measure.space.weights.tobytes() == want.measure.space.weights.tobytes()
    assert got.measure.atoms.tobytes() == want.measure.atoms.tobytes()
    assert dumps_report(run(got)["results"]) == dumps_report(run(want)["results"])
    for word in ("Uniform", "uniformly", ""):
        data["space"]["weights"] = word
        with pytest.raises(ValidationError, match="weights must list one value per atom"):
            build_scenario(data)


def test_validation_divisibility():
    data = _preset("canonical-l1")
    data["experiment"]["levels"] = 3
    with pytest.raises(ValidationError, match="divisible"):
        build_scenario(data)


def test_validation_refuses_a_huge_level_count_without_computing_its_power():
    # 2**levels cannot divide n once levels >= n.bit_length(); 2**(10**12) would
    # need about 125 GB
    for experiment in ({"kind": "martingale"}, {"kind": "rn_net", "family": "expectation"}):
        data = _preset("canonical-l1")
        data["experiment"] = {**experiment, "levels": 10**12}
        with pytest.raises(ValidationError, match=r"number of atoms 4 is not divisible by 2\*\*1000000000000"):
            build_scenario(data)
    data = _preset("canonical-l1")
    data["experiment"]["levels"] = 2  # the largest count n = 4 allows
    assert build_scenario(data).experiment["levels"] == 2


def _spy_run_net(monkeypatch) -> list:
    """The (measure, levels, f, blocks, keywords) of each harness call of run_net from now on."""
    from vmlab import harness

    calls = []
    original = harness.run_net

    def spy(m, net, f, blocks=None, **kw):
        net = list(net)
        calls.append((m, net, f, blocks, kw))
        return original(m, net, f, blocks=blocks, **kw)

    monkeypatch.setattr(harness, "run_net", spy)
    return calls


def _direct_net(m, experiment: dict):
    """The net of a net experiment, from the library's net constructors."""
    from vmlab import basis_net, dyadic_chain, martingale_net, rn_net

    if experiment["kind"] == "basis":
        return basis_net(m)
    if "levels" not in experiment:
        return rn_net(m)  # the coordinate family
    chain = dyadic_chain(experiment["levels"], m.space)
    return martingale_net(m, chain) if experiment["kind"] == "martingale" else rn_net(m, chain)


# the indicator into l1-of-mu, and random atoms into L2 at d = n = 8 ("random8")
_NET_SCENARIOS = {
    "indicator8": {
        "space": {"n": 8, "weights": [0.5 + (i * 3 % 8) / 8 for i in range(8)]},
        "functions": [[(-1.0) ** i * (1 + i % 3) / 3 for i in range(8)]],
    },
    "random8": {
        "space": {"n": 8, "weights": [0.5 + (i * 5 % 8) / 8 for i in range(8)]},
        "value_space": {"kind": "L2", "d": 8, "scale": [1.0 + (i % 3) / 4 for i in range(8)]},
        "measure": {"kind": "random", "seed": 3},
        "functions": [[(-1.0) ** i * (1 + i % 3) / 16 for i in range(8)]],
    },
}


@pytest.mark.parametrize("name", sorted(_NET_SCENARIOS))
def test_default_block_tests_are_the_block_indicators_bitwise(monkeypatch, tmp_path, capsys, name):
    # each net through the command line runs run_net on f and the chain's finest
    # partition, and reports the rows of run_net called directly
    from vmlab import dyadic_chain, run_net

    calls = _spy_run_net(monkeypatch)
    data = {**_preset("canonical-l1"), **_NET_SCENARIOS[name]}
    path = tmp_path / "scenario.json"
    experiments = [{"kind": "basis"}, {"kind": "rn_net", "family": "coordinate"}]
    for levels in range(4):
        experiments += [{"kind": "martingale", "levels": levels},
                        {"kind": "rn_net", "family": "expectation", "levels": levels}]
    for experiment in experiments:
        data["experiment"] = {**experiment, "seed": 3, "exact_cutoff": 12}
        path.write_text(json.dumps(data))
        calls.clear()
        assert cli_main(["report", "--scenario", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        [(m, net, f, blocks, kw)] = calls
        assert kw == {"exact_cutoff": 12, "seed": 3}
        sc = build_scenario(data)
        assert f.coeffs.tobytes() == sc.functions[0].coeffs.tobytes()
        finest = dyadic_chain(experiment["levels"], m.space)[-1] if "levels" in experiment else None
        if finest is None:
            assert blocks is None, experiment
        else:
            assert blocks.block_of.tobytes() == finest.block_of.tobytes(), experiment
        g, net = sc.functions[0], _direct_net(sc.measure, experiment)
        # through the report writer, so that 0.0 reads back as 0 on both sides
        direct = [[lv.index, lv.norm_gap, lv.deviation, lv.pointwise_gap, lv.weakstar_gap]
                  for lv in run_net(sc.measure, net, g, blocks=finest, **kw)]
        assert rows and repr(rows) == repr(json.loads(dumps_report(direct))), experiment


def test_a_martingale_run_builds_no_simple_function_per_block(monkeypatch):
    # the runner hands run_net the chain's finest partition, so the functions a
    # run constructs do not grow with its 2**levels blocks
    from vmlab import SimpleFunction

    built = []
    original = SimpleFunction.__post_init__

    def counted(self):
        built.append(self.space.n)
        original(self)

    monkeypatch.setattr(SimpleFunction, "__post_init__", counted)
    counts = {}
    for levels in (0, 5):
        data = {**_preset("canonical-l1"), **_UNIFORM64, "experiment": {"kind": "martingale", "levels": levels}}
        built.clear()
        report = run(build_scenario(data))
        assert "error" not in report and len(report["results"]["rows"]) == levels + 1
        counts[levels] = len(built)
    assert counts[5] == counts[0], counts


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
    report = run(build_scenario(PRESETS["canonical-l1"]))
    assert "error" not in report
    rows = report["results"]["rows"]
    assert [r[0] for r in rows] == [0, 1, 2]
    assert [r[3] for r in rows] == pytest.approx([0.375, 0.25, 0.0], abs=1e-15)
    assert all(r[1] <= r[2] + 1e-10 for r in rows)  # norm gap <= deviation


def test_run_daugavet_sweep_defects():
    report = run(build_scenario(PRESETS["daugavet-sweep"]))
    rows = report["results"]["rows"]
    assert [r[0] for r in rows] == [4, 64, 1024]
    assert [r[4] for r in rows] == [0.5, 0.03125, 0.001953125]


def test_run_identity_preset():
    report = run(build_scenario(PRESETS["rank-one"]))
    row = report["results"]["rows"][0]
    assert row[1] == pytest.approx(2.0, abs=1e-12)
    assert row[2] == pytest.approx(2.0, abs=1e-12)
    assert row[4] <= 1e-10
    assert row[5] is True


def test_json_roundtrip_equality(tmp_path):
    report = run(build_scenario(PRESETS["canonical-l1"]))
    path = tmp_path / "report.json"
    emit(report, "json", path)
    parsed = json.loads(path.read_text())
    assert parsed == report  # 17 significant digits read every finite double back equal in value


def test_every_finite_float_reads_back_equal_in_value():
    rng = np.random.default_rng(29)
    values = [-0.0, 0.0, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 1e17, 0.1, 5e-324, -2.2250738585072014e-308]
    values += [1.7976931348623157e308, *(rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200))]
    values += [float(v) for v in rng.integers(-(2**60), 2**60, size=50)]
    parsed = json.loads(dumps_report(values))
    assert len(parsed) == len(values)
    for got, want in zip(parsed, values):
        assert got == want and float(got) == want
    # -0.0 and integral floats are written like integers and read back as ints
    assert dumps_report([-0.0, 1.0]) == "[\n  -0,\n  1\n]\n"
    assert [type(v) for v in json.loads(dumps_report([-0.0, 1.0, 0.5]))] == [int, int, float]


def test_csv_shape(tmp_path):
    report = run(build_scenario(PRESETS["canonical-l1"]))
    text = dumps_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "level,norm_gap,deviation,pointwise_gap,weakstar_gap"
    assert len(lines) == 4


def test_csv_header_only_for_empty_table():
    data = _preset("random-measure")
    data["functions"] = []
    report = run(build_scenario(data))
    assert dumps_csv(report).strip() == "f_index,value,method,heuristic"


def _frozen_canon(obj, indent: int) -> str:
    """The report writer as it was before its type dispatch, kept as the reference."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("cannot serialize a non-finite number")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _frozen_canon(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_frozen_canon(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_the_writer_keeps_the_bytes_of_the_frozen_writer_on_every_preset(monkeypatch):
    import vmlab.harness as harness

    scenarios = [_preset(name) for name in sorted(PRESETS)]
    for experiment in ({"kind": "rn_net", "family": "expectation", "levels": 2},
                       {"kind": "series_gap", "sign": -1, "samples": 8}):
        scenarios.append(_preset("canonical-l1"))
        scenarios[-1]["experiment"] = experiment
    assert {data["experiment"]["kind"] for data in scenarios} == set(EXPERIMENTS)
    indicator = _preset("canonical-l1")
    indicator.update(space={"n": 16, "weights": "uniform"}, functions=[[(-1.0) ** i * i / 7 for i in range(16)]])
    reports = [run(build_scenario(data)) for data in scenarios + [indicator]]
    assert all("error" not in report for report in reports)
    json_texts = [dumps_report(report) for report in reports]
    csv_texts = [dumps_csv(report) for report in reports]
    monkeypatch.setattr(harness, "_canon", _frozen_canon)
    assert json_texts == [_frozen_canon(report, 0) + "\n" for report in reports]
    assert csv_texts == [dumps_csv(report) for report in reports]


class _Text(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.0**53 + 2, 12345678901234567890,
        True, False, 1, 0, -7, [True, 1, 1.0, False, 0, 0.0], (1, (2.5, ()), []),
        [], (), {}, "", "x\"y\\z\n\u00e9\U0001f600", _Text("sub"),
        np.float64(-0.0), np.float32(0.1), np.float16(3.5), np.int64(-3), np.uint8(200), np.bool_(True),
        np.bool_(False), np.arange(6.0).reshape(2, 3), np.array([], dtype=float), np.array([True, False]),
        {"b": 1, "a": [2, {"d": None, "c": 3.5}]},
        {1: "int", "1": "str", 2.5: "float", None: "none", True: "bool", (1, 2): "tuple", "B": 0, "a": 1},
        {"nested": {"empty_list": [], "empty_dict": {}, "tuple": (np.float64(1e-300),)}},
    ],
)
def test_the_writer_keeps_the_bytes_of_the_frozen_writer(value):
    assert dumps_report({"value": value, "list": [value]}) == _frozen_canon({"value": value, "list": [value]}, 0) + "\n"
    assert dumps_report(value) == _frozen_canon(value, 0) + "\n"


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf"), [1.0, float("nan")],
     {"x": -float("inf")},
     object(), {1, 2}, b"bytes", 1j, np.array(1.0), np.complex128(1j), [object()]],
)
def test_the_writer_refuses_what_the_frozen_writer_refused(value):
    with pytest.raises((ValueError, TypeError)) as frozen:
        _frozen_canon(value, 0)
    with pytest.raises(frozen.type, match=f"^{re.escape(str(frozen.value))}$"):
        dumps_report(value)


def test_determinism_byte_identical():
    def strip(report):
        clone = copy.deepcopy(report)
        del clone["metadata"]["wall_time_s"]
        return dumps_report(clone)

    for name in PRESETS:
        data = _preset(name)
        if "seed" in EXPERIMENTS[data["experiment"]["kind"]][1]:
            data["experiment"]["seed"] = 123
        a = strip(run(build_scenario(data)))
        b = strip(run(build_scenario(data)))
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
    assert "seed" not in report["metadata"]  # identity takes no seed


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


def test_series_gap_with_too_many_samples_exits_2_at_once(tmp_path, capsys):
    # 2 * 2**40 * 4 normals would take 64 TB; the draw limit refuses them unallocated
    out = tmp_path / "r.json"
    started = time.perf_counter()
    code = cli_main(["series-gap", "--scenario", "canonical-l1", "--samples", str(2**40), "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert json.loads(out.read_text())["error"]["type"] == "CapacityExceeded"
    capsys.readouterr()


def test_norm_with_too_many_restarts_exits_2_at_once(tmp_path, capsys):
    # every norm row runs hill_climb, whose 2**40 * k starting signs would take terabytes
    out = tmp_path / "r.json"
    started = time.perf_counter()
    code = cli_main(["norm", "--scenario", "random-measure", "--restarts", str(2**40), "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "CapacityExceeded" and "signs exceed the draw limit" in error["message"]
    capsys.readouterr()


def test_daugavet_sweep_past_the_limit_exits_2_before_any_point(tmp_path, monkeypatch, capsys):
    # an n = 2**40 point would allocate three 8 TB arrays; every size is checked before any point runs
    from vmlab.harness import SWEEP_LIMIT

    assert SWEEP_LIMIT >= 10**6
    data = _preset("daugavet-sweep")
    data["space"]["weights"] = [0.25] * 4  # the scenario's own space needs no MeasureSpace.uniform
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps(data))

    def refuse(*_):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(MeasureSpace, "uniform", refuse)
    out = tmp_path / "r.json"
    started = time.perf_counter()
    code = cli_main(["daugavet", "--scenario", str(scenario), "--sweep", f"4,{2**40}", "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "CapacityExceeded" and str(2**40) in error["message"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "sections, message",
    [
        (
            {
                "space": {"n": 8192, "weights": "uniform"},
                "value_space": {"kind": "L2", "d": 8192},
                "measure": {"kind": "random", "seed": 1},
                "functions": [[1.0] * 8192],
            },
            "67108864 normals exceed the draw limit 33554432",
        ),
        ({"space": {"n": 2**62, "weights": "uniform"}}, f"space.n {2**62} exceeds the limit {NORMALS_LIMIT}"),
    ],
    ids=["random-measure-draws", "space-n"],
)
def test_a_capacity_error_of_the_build_exits_2_without_a_report(tmp_path, monkeypatch, capsys, sections, message):
    # the build raises before any report exists, so its stderr line is all that names the error;
    # numpy would refuse n = 2**62 weights with a bare ValueError, so they must never be asked for
    uniform = MeasureSpace.uniform

    def guarded(n):
        assert n <= NORMALS_LIMIT, f"MeasureSpace.uniform({n}) was called"
        return uniform(n)

    monkeypatch.setattr(MeasureSpace, "uniform", guarded)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_preset("canonical-l1"), **sections}))
    out = tmp_path / "r.json"
    for extra in ([], ["--out", str(out)]):
        started = time.perf_counter()
        assert cli_main(["report", "--scenario", str(path), *extra]) == 2
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: CapacityExceeded: {message}\n"
    assert not out.exists()


def test_space_n_is_refused_past_the_normals_limit_before_its_weights(monkeypatch):
    # 2**20 atoms, the largest n any benchmark or ROADMAP target asks for, build for real;
    # n = NORMALS_LIMIT builds from a 4-atom stand-in (no 256 MB array is made), and one
    # more atom is refused before MeasureSpace.uniform runs
    n = 2**20
    data = {**_preset("canonical-l1"), "space": {"n": n, "weights": "uniform"}, "functions": [np.ones(n)]}
    assert build_scenario(data).measure.space.n == n
    sizes = []
    uniform = MeasureSpace.uniform
    monkeypatch.setattr(MeasureSpace, "uniform", lambda n: sizes.append(n) or uniform(4))
    data = _preset("canonical-l1")
    data["space"]["n"] = NORMALS_LIMIT
    build_scenario(data)
    data["space"]["n"] = NORMALS_LIMIT + 1
    with pytest.raises(CapacityExceeded, match=f"space.n {NORMALS_LIMIT + 1} exceeds the limit"):
        build_scenario(data)
    assert sizes == [NORMALS_LIMIT]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["daugavet", "--scenario", "canonical-l1", "--sweep", str(2**40)], f"daugavet sweep size {2**40} exceeds the limit"),
        (["norm", "--scenario", "canonical-l1", "--restarts", str(2**40)], f"{2**40} signs exceed the draw limit"),
    ],
    ids=["daugavet-sweep", "norm-restarts"],
)
def test_a_report_error_is_named_on_stderr_in_either_format(capsys, argv, message, fmt):
    # the CSV table of a failed run has no rows, so stderr is where its reason shows
    assert cli_main([*argv, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: CapacityExceeded: ") and captured.err.count("\n") == 1
    assert message in captured.err
    if fmt == "csv":
        assert captured.out == "\n"  # the header of a table without columns, as before
    else:
        error = json.loads(captured.out)["error"]
        assert captured.err == f"error: {error['type']}: {error['message']}\n"


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
        ("daugavet", "sweep", [0]),
        ("daugavet", "sweep", [2.0]),
        ("series_gap", "sign", True),
        ("measure", "k", True),
        ("measure", "k", 0),
        ("measure", "k", 2.0),
    ],
)
def test_invalid_numeric_parameters_are_validation_errors(tmp_path, capsys, section, key, value):
    data = _preset("rank-one" if key == "tolerance" else "random-measure")
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


def _numpy_integers(obj):
    """``obj`` with every int in it, bools aside, made an ``np.int64``."""
    if isinstance(obj, dict):
        return {key: _numpy_integers(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_numpy_integers(value) for value in obj]
    return np.int64(obj) if type(obj) is int else obj


_COMPOSED_INDICATOR = {"kind": "composed", "base": {"kind": "indicator"}, "k": 2}


@pytest.mark.parametrize(
    "preset, settings, measure",
    [
        ("canonical-l1", {"seed": 5, "exact_cutoff": 12}, None),
        ("random-measure", {"seed": 5, "restarts": 3}, None),
        ("canonical-l1", {"kind": "series_gap", "seed": 5, "samples": 16}, None),
        ("daugavet-sweep", {}, None),
        ("canonical-l1", {}, _COMPOSED_INDICATOR),
    ],
)
def test_numpy_integer_settings_build_the_same_report_as_ints(preset, settings, measure):
    # every int of the scenario: n, d, the measure seed, levels, sweep sizes, the
    # composed measure's k and the settings
    data = _preset(preset)
    data["experiment"].update(settings)
    data["measure"] = measure or data["measure"]
    if settings.get("kind") == "series_gap":
        data["experiment"].pop("levels")
    numpy_data = _numpy_integers(data)
    assert type(numpy_data["space"]["n"]) is np.int64
    texts = []
    for scenario in (data, numpy_data):
        report = run(build_scenario(scenario))
        del report["metadata"]["wall_time_s"]
        texts.append(dumps_report(report))
    assert "error" not in json.loads(texts[0]) and texts[1] == texts[0]


def test_numpy_float_settings_build_the_same_report_as_floats():
    # the identity's two real settings; 0.5 and 2**-10 are exact in every float width
    data = _preset("rank-one")
    data["experiment"].update({"lambda": 0.5, "tolerance": 2**-10})
    numpy_data = copy.deepcopy(data)
    numpy_data["experiment"].update({"lambda": np.float32(0.5), "tolerance": np.float16(2**-10)})
    texts = []
    for scenario in (data, numpy_data):
        report = run(build_scenario(scenario))
        del report["metadata"]["wall_time_s"]
        texts.append(dumps_report(report))
    assert "error" not in json.loads(texts[0]) and texts[1] == texts[0]


@pytest.mark.parametrize("value", [np.float32("nan"), np.float16("inf"), np.float64("-inf"), np.True_, True])
@pytest.mark.parametrize("key", ["lambda", "tolerance"])
def test_numpy_floats_that_are_not_finite_reals_are_refused(key, value):
    data = _preset("rank-one")
    data["experiment"][key] = value
    with pytest.raises(ValidationError, match=f"{key} must be a finite real number"):
        build_scenario(data)


@pytest.mark.parametrize("section, key", [("space", "n"), ("experiment", "seed"), ("experiment", "restarts"),
                                          ("value_space", "d"), ("measure", "seed"), ("measure", "k"),
                                          ("experiment", "sign")])
def test_numpy_bools_are_no_integers(section, key):
    data = _preset("daugavet-sweep" if key == "sign" else "random-measure")  # daugavet takes a sign
    if key == "k":
        data = {**_preset("canonical-l1"), "measure": dict(_COMPOSED_INDICATOR)}
    data[section][key] = np.True_
    with pytest.raises(ValidationError, match=key):
        build_scenario(data)


@pytest.mark.parametrize("flag, value", [("--exact-cutoff", "-1"), ("--tolerance", "-1e-10")])
def test_cli_overrides_are_validation_errors(capsys, flag, value):
    # flag=value, since argparse reads a lone -1e-10 as an option; identity takes the tolerance
    preset = "rank-one" if flag == "--tolerance" else "canonical-l1"
    assert cli_main(["report", "--scenario", preset, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert "unknown key" not in err  # the kind takes the flag; its value is refused


@pytest.mark.parametrize(
    "argv",
    [
        ["daugavet", "--scenario", "canonical-l1", "--sign", "0"],
        ["norm", "--scenario", "canonical-l1", "--restarts", "x"],
        ["daugavet", "--scenario", "canonical-l1", "--sweep", "4,x"],
        ["converge", "rn", "--scenario", "canonical-l1", "--family", "none"],
        ["report"],
    ],
)
def test_cli_usage_errors_exit_1(capsys, argv):
    # 2 is the capacity-error code, so argparse's own exit code is not used
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "net, flag, value",
    [
        ("martingale", "--family", "expectation"),
        ("basis", "--family", "expectation"),
        ("rn", "--levels", "7"),  # levels apply to the expectation family only
    ],
    ids=["martingale", "basis", "rn-levels"],
)
def test_cli_flags_the_experiment_does_not_take_are_validation_errors(capsys, net, flag, value):
    argv = ["converge", net, "--scenario", "canonical-l1", flag, value]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:] in err


@pytest.mark.parametrize(
    "override", [{"seed": 1.5}, {"exact_cutoff": -1}, {"tolerance": -1e-10}, {"tolerance": True}]
)
def test_run_overrides_are_validated(override):
    # run() takes only the scenario: an override goes into its experiment section
    data = _preset("rank-one" if "tolerance" in override else "canonical-l1")
    data["experiment"] = {**data["experiment"], **override}
    with pytest.raises(ValidationError, match=f"{next(iter(override))} must be"):
        run(build_scenario(data))


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
        data["experiment"]["seed"] = seed
        (row,) = run(build_scenario(data))["results"]["rows"]
        assert row[2] == "heuristic"
        assert row[1] == row[3]


def _net_rows(tmp_path, capsys, data: dict, *argvs) -> list:
    """The report rows of each ``vmlab`` argv on the scenario ``data``."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    rows = []
    for argv in argvs:
        assert cli_main([*argv, "--scenario", str(path)]) == 0
        rows.append(json.loads(capsys.readouterr().out)["results"]["rows"])
    return rows


_UNIFORM64 = {
    "space": {"n": 64, "weights": "uniform"},
    "functions": [[(-1.0) ** i * (i % 5) / 3 for i in range(64)]],
    "experiment": {"kind": "martingale", "levels": 6},
}


@pytest.mark.parametrize("edit", [{}, _UNIFORM64], ids=["canonical-l1", "indicator64"])
def test_rn_net_expectation_matches_martingale_table(tmp_path, capsys, edit):
    # the indicator into l1-of-mu on uniform atoms: both nets read their rows from
    # block means, and the last level is the indicator measure itself
    data = {**_preset("canonical-l1"), **edit}
    levels = data["experiment"]["levels"]
    rn_rows, martingale_rows = _net_rows(
        tmp_path, capsys, data, ["converge", "rn", "--family", "expectation", "--levels", str(levels)],
        ["converge", "martingale", "--levels", str(levels)],
    )
    assert len(martingale_rows) == levels + 1 and rn_rows == martingale_rows
    assert martingale_rows[-1][1] == martingale_rows[-1][3] == 0.0  # norm_gap, pointwise_gap


_INDICATOR64 = {
    "space": {"n": 64, "weights": [0.5 + (i * 37 % 64) / 64 for i in range(64)]},
    "functions": [[(-1.0) ** i * (i % 5) / 3 for i in range(64)]],
    "experiment": {"kind": "basis"},
}


@pytest.mark.parametrize("preset, edit", [("schauder", {}), ("canonical-l1", _INDICATOR64)],
                         ids=["schauder", "indicator64"])
def test_rn_net_coordinate_runner(tmp_path, capsys, preset, edit):
    # the coordinate family gives the basis net's rows; of the indicator into
    # l1-of-mu both read them from suffix sums
    data = {**_preset(preset), **edit}
    coordinate, basis = _net_rows(
        tmp_path, capsys, data, ["converge", "rn", "--family", "coordinate"], ["converge", "basis"]
    )
    assert len(coordinate) == data["space"]["n"] and coordinate == basis
    assert coordinate[-1][1:] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_series_gap_runner():
    data = _preset("canonical-l1")
    data["experiment"] = {"kind": "series_gap", "sign": -1, "samples": 16}
    report = run(build_scenario(data))
    (row,) = report["results"]["rows"]
    assert row[0] == pytest.approx(2.0, abs=1e-12)
    assert -1e-10 <= row[1] <= 1.0 - 2.0 / 4 + 1e-12


def test_emit_io_error_has_path_context(tmp_path):
    report = run(build_scenario(PRESETS["canonical-l1"]))
    bad = tmp_path / "missing_dir" / "r.json"
    with pytest.raises(OSError, match="missing_dir"):
        emit(report, "json", bad)


def test_presets_complete_quickly():
    import time

    for name in sorted(PRESETS):
        started = time.perf_counter()
        report = run(build_scenario(PRESETS[name]))
        assert "error" not in report, name
        assert time.perf_counter() - started < 10.0, name


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "preset, sections, message",
    [
        ("canonical-l1", {"experiment": {"levels": 2}}, "experiment must be an object with a kind"),
        # 2**(10**12) would need about 125 GB; the refusal must not compute it
        ("canonical-l1", {"experiment": {"kind": "martingale", "levels": 10**12}}, r"not divisible by 2\*\*1000000000000"),
        ("canonical-l1", {"experiment": {"kind": "bogus"}}, "unknown experiment kind 'bogus'"),
        ("canonical-l1", {"experiment": {"kind": ["norm"]}}, "unknown experiment kind"),
        ("canonical-l1", {"functions": []}, "experiment martingale needs at least one function"),
        (
            "canonical-l1",
            {"experiment": {"kind": "rn_net", "family": "x"}},
            "rn_net family must be coordinate or expectation",
        ),
        (
            "canonical-l1",
            {"experiment": {"kind": "rn_net", "levels": "x"}},
            "rn_net levels apply to the expectation family only",
        ),
        (
            "random-measure",
            {"experiment": {"kind": "rn_net", "family": "expectation", "levels": 1}},
            "expectation family needs value_space dimension equal to n",
        ),
        (
            "random-measure",
            {"value_space": {"kind": "L2", "d": 3}, "experiment": {"kind": "identity"}},
            "identity experiment needs a polyhedral value_space",
        ),
        (
            "rank-one",
            {"experiment": {"kind": "identity", "other": {"kind": "bogus"}}},
            "unknown measure kind 'bogus'",
        ),
        ("random-measure", {"experiment": {"kind": "series_gap"}}, "series_gap needs value_space l1-of-mu"),
        ("canonical-l1", {"schema_version": 2}, "unsupported schema_version 2"),
        ("canonical-l1", {"functions": {}}, "functions must be a list"),
        ("canonical-l1", {"measure": {"kind": "bogus"}}, "unknown measure kind 'bogus'"),
        ("canonical-l1", {"measure": {"kind": "matrix", "rows": [[1.0]]}}, "matrix measure needs n rows"),
        ("canonical-l1", {"measure": {"kind": "rank_one", "g": [1.0]}}, "rank_one density g must have"),
        # json writes and reads NaN and Infinity; every number must be finite
        (
            "canonical-l1",
            {"measure": {"kind": "matrix", "rows": [[NAN, 0, 0, 0]] + np.eye(4)[1:].tolist()}},
            "matrix measure needs n rows of value_space dimension, all finite",
        ),
        (
            "rank-one",
            {"measure": {"kind": "rank_one", "g": [1.0, INF, 0.0, 0.0]}},
            "rank_one density g must have value_space dimension, all finite",
        ),
        ("random-measure", {"functions": [[1.0, NAN, 0, 0, 0, 0]]}, "one coefficient per atom, all finite"),
        ("rank-one", {"experiment": {"kind": "identity", "lambda": NAN}}, "lambda must be a finite real"),
        ("rank-one", {"experiment": {"kind": "identity", "lambda": INF}}, "lambda must be a finite real"),
        (
            "random-measure",
            {"experiment": {"kind": "identity", "other": {"kind": "random", "seed": 3}, "tolerance": INF}},
            "tolerance must be a finite",
        ),
        (
            "rank-one",
            {"experiment": {"kind": "identity", "other": {"kind": "matrix", "rows": [[NAN] * 4] * 4}}},
            "matrix measure needs n rows of value_space dimension, all finite",
        ),
        # 1 / 1e-320 overflows, and so do the rank-one atoms 1e300 * 1e300
        (
            "canonical-l1",
            {"space": {"n": 4, "weights": [1e-320, 1, 1, 1]}},
            "weights must be positive, each with a finite reciprocal",
        ),
        (
            "rank-one",
            {
                "space": {"n": 4, "weights": [1e300, 1, 1, 1]},
                "measure": {"kind": "rank_one", "g": [1e300, 1, 1, 1]},
            },
            r"measure rank_one atoms mu_i \* g overflow",
        ),
        (
            "rank-one",
            {
                "space": {"n": 4, "weights": [1e300, 1, 1, 1]},
                "experiment": {"kind": "identity", "other": {"kind": "rank_one", "g": [1e300, 1, 1, 1]}},
            },
            r"experiment.other rank_one atoms mu_i \* g overflow",
        ),
        # numpy reads a dict scale with a TypeError, and True as 1.0
        ("random-measure", {"value_space": {"kind": "LINF", "d": 3, "scale": {"a": 1}}}, "invalid value_space scale"),
        ("random-measure", {"value_space": {"kind": "LINF", "d": 3, "scale": True}}, "bools and strings are not numbers"),
        ("random-measure", {"value_space": {"kind": "LINF", "d": 3, "scale": [1.0, "2", 1.0]}}, "bools and strings are not numbers"),
        # numpy bools and strings, array or scalar, reach the scale only from Python
        *(
            ("random-measure", {"value_space": {"kind": "LINF", "d": 3, "scale": scale}}, "bools and strings are not numbers")
            for scale in (np.array([True, True, True]), np.array(["1", "2", "1"]), np.True_)
        ),
    ],
)
def test_validation_errors_fail_the_build_and_the_cli(tmp_path, capsys, preset, sections, message):
    data = _preset(preset)
    data.update(sections)
    with pytest.raises(ValidationError, match=message):
        build_scenario(data)
    if isinstance(data["value_space"].get("scale"), (np.ndarray, np.generic)):
        return  # a scenario file holds no numpy value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["report", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def _set_number_field(data, field, values):
    """canonical-l1 (n = d = 4) with ``values`` in one of the four number-list fields."""
    if field == "weights":
        data["space"]["weights"] = values
    elif field == "rank_one.g":
        data["measure"] = {"kind": "rank_one", "g": values}
    elif field == "matrix.rows":
        data["measure"] = {"kind": "matrix", "rows": [values] + np.eye(4)[1:].tolist()}
    else:
        data["functions"] = [values, [1.0, 0.0, 0.0, 0.0]]
    return data


_NUMBER_FIELDS = ("weights", "rank_one.g", "matrix.rows", "functions")


@pytest.mark.parametrize("field", _NUMBER_FIELDS)
@pytest.mark.parametrize(
    "values",
    [
        [True, True, True, True],
        [1.0, True, 2.0, 1.0],
        [1.0, "2", 1.0, 1.0],
        ["1", "1", "1", "1"],
        np.array([True, False, True, False]),
    ],
    ids=["bools", "mixed", "string", "strings", "numpy-bools"],
)
def test_number_lists_refuse_bools_and_strings(tmp_path, capsys, field, values):
    # numpy reads true and "2" as 1.0 and 2.0, and [1.0, true] as float64;
    # np.bool_ is no subclass of bool, so a bool array is a case of its own
    data = _set_number_field(_preset("canonical-l1"), field, values)
    with pytest.raises(ValidationError, match="bools and strings are not numbers"):
        build_scenario(data)
    if isinstance(values, np.ndarray):
        return  # a scenario file holds no numpy array
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["report", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("field", _NUMBER_FIELDS)
def test_number_lists_of_ints_and_floats_keep_their_bits(field):
    floats = [1.0, 2.0, 0.5, 3.0]
    want = run(build_scenario(_set_number_field(_preset("canonical-l1"), field, floats)))
    got = run(build_scenario(_set_number_field(_preset("canonical-l1"), field, [1, 2, 0.5, 3])))
    assert dumps_report(got["results"]) == dumps_report(want["results"])


def test_identity_builds_its_other_measure_with_the_scenario():
    sc = build_scenario(PRESETS["rank-one"])
    other = sc.experiment["other"]
    assert other.space is sc.measure.space and np.array_equal(other.atoms, np.eye(4))


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--scenario", "canonical-l1"],
        ["report", "--scenario", "FILE", "--seed", "3"],
        ["norm", "--scenario", "FILE"],
        ["converge", "rn", "--scenario", "canonical-l1", "--family", "expectation", "--levels", "2"],
        ["identity", "--scenario", "rank-one", "--lambda", "0.5"],
    ],
)
def test_cli_builds_each_scenario_once(tmp_path, monkeypatch, capsys, argv):
    import vmlab.cli
    import vmlab.harness

    builds = []

    def counted(data, _build=vmlab.harness.build_scenario):
        builds.append(data)
        return _build(data)

    monkeypatch.setattr(vmlab.harness, "build_scenario", counted)
    monkeypatch.setattr(vmlab.cli, "build_scenario", counted)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_preset("random-measure")))
    assert cli_main([str(path) if arg == "FILE" else arg for arg in argv]) == 0
    capsys.readouterr()
    assert len(builds) == 1


def test_cli_subcommand_replaces_an_invalid_experiment(tmp_path, capsys):
    data = _preset("random-measure")
    data["experiment"] = {"kind": "bogus", "seed": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["norm", "--scenario", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"]["experiment"] == {"kind": "norm", "seed": 3}
    assert report["metadata"]["seed"] == 3


@pytest.mark.parametrize(
    "argv, kept",
    [
        (["daugavet"], {}),
        (["series-gap"], {"seed": 3}),
        (["converge", "basis"], {"seed": 3, "exact_cutoff": 12}),
        (["identity"], {"tolerance": 1e-8}),
    ],
    ids=["daugavet", "series-gap", "basis", "identity"],
)
def test_cli_subcommand_keeps_the_settings_the_new_kind_takes(tmp_path, capsys, argv, kept):
    data = _preset("canonical-l1")
    data["experiment"] = {"kind": "bogus", "seed": 3, "exact_cutoff": 12, "tolerance": 1e-8, "levels": 2}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main([*argv, "--scenario", str(path)]) == 0
    experiment = json.loads(capsys.readouterr().out)["scenario"]["experiment"]
    assert experiment == {"kind": argv[-1].replace("-", "_"), **kept}


def test_a_subcommand_of_the_files_own_kind_keeps_its_experiment_section(tmp_path, capsys):
    # canonical-l1 runs a martingale net of levels 2, so converge martingale needs
    # no --levels and prints report's rows; a flag given overrides the file's value
    rows = []
    for argv in (["report"], ["converge", "martingale"]):
        assert cli_main([*argv, "--scenario", "canonical-l1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["experiment"] == {"kind": "martingale", "levels": 2}
        rows.append(report["results"]["rows"])
    assert len(rows[0]) == 3 and rows[1] == rows[0]
    assert cli_main(["converge", "martingale", "--scenario", "canonical-l1", "--levels", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["experiment"] == {"kind": "martingale", "levels": 1}
    # another kind still keeps only seed, exact_cutoff and tolerance: rn runs the coordinate family
    assert cli_main(["converge", "rn", "--scenario", "canonical-l1"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["experiment"] == {"kind": "rn_net"}
    # of rn_net, the family is part of the kind: a --family switch drops the expectation's levels
    path = tmp_path / "scenario.json"
    expectation = {"kind": "rn_net", "family": "expectation", "levels": 2, "seed": 3}
    path.write_text(json.dumps({**_preset("canonical-l1"), "experiment": expectation}))
    coordinate = {"kind": "rn_net", "family": "coordinate", "seed": 3}
    for family, want in (("expectation", expectation), ("coordinate", coordinate)):
        assert cli_main(["converge", "rn", "--scenario", str(path), "--family", family]) == 0
        assert json.loads(capsys.readouterr().out)["scenario"]["experiment"] == want, family
    assert cli_main(["converge", "rn", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["experiment"] == expectation


@pytest.mark.parametrize(
    "argv, edit",
    [
        # the sums of f = (1e308, -1e308, 1e308, 1, 1, 1) overflow the LINF norm engines
        (["report", "--scenario", "FILE"], ("random-measure", {"functions": [[1e308, -1e308, 1e308, 1, 1, 1]]})),
        (
            ["report", "--scenario", "FILE"],
            (
                "rank-one",
                {
                    "experiment": {
                        "kind": "identity",
                        "lambda": 1e308,
                        "other": {"kind": "rank_one", "g": [4, 4, 4, 4]},
                    }
                },
            ),
        ),
        (["report", "--scenario", "canonical-l1", "--out", "MISSING"], None),
        (["preset", "canonical-l1", "--out", "MISSING"], None),
    ],
    ids=["linf-norm-overflow", "identity-overflow", "report-out-unwritable", "preset-out-unwritable"],
)
def test_cli_failures_exit_1_without_a_traceback(tmp_path, capsys, argv, edit):
    path = tmp_path / "scenario.json"
    if edit is not None:
        data = _preset(edit[0])
        data.update(edit[1])
        path.write_text(json.dumps(data))
    paths = {"FILE": str(path), "MISSING": str(tmp_path / "missing" / "x.json")}
    assert cli_main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if edit is None:
        assert captured.out == "" and captured.err.startswith("error: ")
        return
    report = json.loads(captured.out, parse_constant=lambda name: pytest.fail(f"{name} in report"))
    assert report["error"]["type"] == "FloatingPointError"
    assert "overflow" in report["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--scenario", "canonical-l1", "--seed", "5", "--exact-cutoff", "12"],
        ["norm", "--scenario", "random-measure", "--seed", "9", "--restarts", "3"],
        ["report", "--scenario", "rank-one", "--tolerance", "1e-8"],
    ],
    ids=["report", "norm", "report-tolerance"],
)
def test_cli_echoed_scenario_reproduces_the_report(tmp_path, capsys, argv):
    def without_wall_time(text):
        return [line for line in text.splitlines() if '"wall_time_s":' not in line]

    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(json.loads(first)["scenario"]))
    assert cli_main(["report", "--scenario", str(path)]) == 0
    second = capsys.readouterr().out
    assert without_wall_time(second) == without_wall_time(first)
    assert len(without_wall_time(first)) == len(first.splitlines()) - 1


# the parameters each kind reads; the norm engines read seed and exact_cutoff
_PARAMETERS = {
    "norm": {"seed", "exact_cutoff", "restarts"},
    "martingale": {"seed", "exact_cutoff", "levels"},
    "basis": {"seed", "exact_cutoff"},
    "rn_net": {"seed", "exact_cutoff", "family", "levels"},
    "daugavet": {"sweep", "sign"},
    "identity": {"tolerance", "lambda", "other"},
    "series_gap": {"seed", "sign", "samples"},
}
_KIND_PRESETS = {
    "norm": ("random-measure", None),
    "martingale": ("canonical-l1", None),
    "basis": ("schauder", None),
    "rn_net": ("canonical-l1", {"kind": "rn_net"}),
    "daugavet": ("daugavet-sweep", None),
    "identity": ("rank-one", None),
    "series_gap": ("canonical-l1", {"kind": "series_gap"}),
}
_SETTINGS = {"seed": 5, "exact_cutoff": 12, "tolerance": 1e-8}


def _kind_scenario(kind):
    name, experiment = _KIND_PRESETS[kind]
    data = _preset(name)
    if experiment is not None:
        data["experiment"] = dict(experiment)
    return data


def test_each_kind_takes_exactly_its_parameters():
    assert {kind: set(params) for kind, (_, params) in EXPERIMENTS.items()} == _PARAMETERS


@pytest.mark.parametrize(
    "kind, setting",
    [(kind, setting) for kind, params in _PARAMETERS.items() for setting in _SETTINGS if setting not in params],
)
def test_a_setting_the_kind_does_not_read_is_a_validation_error(tmp_path, capsys, kind, setting):
    data = _kind_scenario(kind)
    assert data["experiment"]["kind"] == kind
    report = run(build_scenario(data))
    assert "error" not in report
    assert ("seed" in report["metadata"]) == ("seed" in _PARAMETERS[kind])
    data["experiment"][setting] = _SETTINGS[setting]
    with pytest.raises(ValidationError, match=re.escape(f"unknown key(s) ['{setting}'] in experiment")):
        build_scenario(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["report", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and setting in captured.err


# each setting's flag: option strings, type, choices, a value on the command line and as parsed,
# in the order a subcommand lists them
_FLAGS = {
    "seed": (["--seed"], int, None, "5", 5),
    "exact_cutoff": (["--exact-cutoff"], int, None, "12", 12),
    "tolerance": (["--tolerance"], float, None, "1e-08", 1e-8),
    "restarts": (["--restarts"], int, None, "3", 3),
    "levels": (["--levels"], int, None, "1", 1),
    "family": (["--family"], None, ("coordinate", "expectation"), "expectation", "expectation"),
    "sweep": (["--sweep"], _atom_counts, None, "4,8", [4, 8]),
    "sign": (["--sign"], int, (-1, 1), "1", 1),
    "lambda": (["--lambda", "--lam"], float, None, "2.5", 2.5),
    "samples": (["--samples"], int, None, "8", 8),
}


@pytest.mark.parametrize(
    "command, kinds",
    [
        (["norm"], ["norm"]),
        (["converge", "martingale"], ["martingale", "basis", "rn_net"]),
        (["converge", "basis"], ["martingale", "basis", "rn_net"]),
        (["converge", "rn"], ["martingale", "basis", "rn_net"]),
        (["daugavet"], ["daugavet"]),
        (["identity"], ["identity"]),
        (["series-gap"], ["series_gap"]),
        (["report"], None),
    ],
)
@pytest.mark.parametrize("setting", list(_FLAGS))
def test_a_subcommand_has_a_setting_flag_only_if_its_kind_takes_it(capsys, command, kinds, setting):
    # a subcommand has the flags of the settings its kinds read; report has the
    # three a subcommand keeps from its scenario file, and validates them against its kind
    taken = {"seed", "exact_cutoff", "tolerance"} if kinds is None else set().union(*map(_PARAMETERS.get, kinds))
    options, type_, choices, text, value = _FLAGS[setting]
    for option in options:
        argv = command + ["--scenario", "canonical-l1", f"{option}={text}"]
        if setting in taken:
            assert getattr(_build_parser().parse_args(argv), setting) == value
            continue
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"vmlab {command[0]}: error: unrecognized arguments: {argv[-1]}"
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices[command[0]]._actions if a.dest in _FLAGS]
    assert [a.dest for a in actions] == [key for key in _FLAGS if key in taken]
    for action in actions:
        if action.dest == setting:
            assert (action.option_strings, action.type, action.choices, action.default) == (
                options, type_, choices, None
            )


@pytest.mark.parametrize(
    "weights, measure",
    [
        ([0.1, 0.2, 0.3, 0.4], {"kind": "rank_one", "g": [1.0, -2.0, 0.5, 3.0]}),
        ("uniform", {"kind": "matrix", "rows": [[1, 2, 0, -1], [0.5, 0, 3, 1], [-2, 1, 1, 0], [0, 0, -1, 4]]}),
        ([0.4, 0.3, 0.2, 0.1], {"kind": "random", "seed": 7}),
        ([0.3, 0.1, 0.4, 0.2], {"kind": "indicator"}),
        (
            [0.1, 0.2, 0.3, 0.4],
            {"kind": "composed", "base": {"kind": "rank_one", "g": [1.0, -2.0, 0.5, 3.0]}, "k": 2},
        ),
    ],
    ids=["weights-rank-one", "matrix", "weights-random", "weights-indicator", "composed-rank-one"],
)
def test_series_gap_runner_matches_the_library_call(monkeypatch, weights, measure):
    from vmlab import harness

    data = _preset("canonical-l1")
    data["space"]["weights"] = weights
    data["measure"] = measure
    data["experiment"] = {"kind": "series_gap", "sign": -1, "samples": 8, "seed": 3}
    sc = build_scenario(data)
    space = MeasureSpace.uniform(4) if weights == "uniform" else MeasureSpace(np.array(weights))
    part = FactoredOperator(space, 0.0, -np.ones(4))
    if measure["kind"] == "indicator":
        G = FactoredOperator(space, 1.0, np.zeros(4))
    elif measure["kind"] == "rank_one":
        G = FactoredOperator(space, 0.0, measure["g"])
    else:
        if measure["kind"] == "composed":  # mu_i * g on the first k coordinates
            atoms = space.weights[:, None] * np.array(measure["base"]["g"])[None, :]
            atoms[:, measure["k"]:] = 0.0
        else:
            atoms = SplitMix64(7).normals(16).reshape(4, 4) if measure["kind"] == "random" else measure["rows"]
        G = OperatorMatrix(np.array(atoms).T, space, NormSpec.l1_of_mu(space))
    rep = series_approximation_gap(G, [part], samples=8, seed=3)
    forms = []
    gap = harness.series_approximation_gap
    monkeypatch.setattr(
        harness, "series_approximation_gap", lambda G, *a, **kw: forms.append(type(G)) or gap(G, *a, **kw)
    )
    assert repr(run(sc)["results"]["rows"]) == repr([[rep.gap_norm, rep.c_estimate]])
    assert forms == [type(G)]  # factored exactly for the indicator and rank_one records


@pytest.mark.parametrize("measure", [{"kind": "indicator"}, {"kind": "rank_one", "g": [1.0, -2.0, 0.5, 3.0]}])
def test_series_gap_on_a_recorded_measure_builds_no_atoms(monkeypatch, measure):
    from helpers import spy_record_builds

    builds = spy_record_builds(monkeypatch)
    data = _preset("canonical-l1")
    data["measure"] = measure
    data["experiment"] = {"kind": "series_gap", "samples": 8}
    report = run(build_scenario(data))
    assert "error" not in report and len(report["results"]["rows"]) == 1
    assert builds == []


@pytest.mark.parametrize(
    "measure, value_space, kind",
    [
        ({"kind": "indicator"}, {"kind": "l1-of-mu"}, "indicator"),
        ({"kind": "indicator"}, {"kind": "L2", "d": 4}, "indicator"),
        ({"kind": "rank_one", "g": [0.1, -2.0, 3.5]}, {"kind": "LINF", "d": 3}, "rank_one"),
        ({"kind": "rank_one", "g": [1.0, -2.0, 0.5, 3.0]}, {"kind": "l1-of-mu"}, "rank_one"),
        ({"kind": "random", "seed": 5}, {"kind": "L1", "d": 3}, "atoms"),
        ({"kind": "matrix", "rows": [[1.0, 2.0], [0.0, -1.0], [3.0, 0.5], [1.0, 1.0]]}, {"kind": "L2", "d": 2}, "atoms"),
        ({"kind": "composed", "base": {"kind": "indicator"}, "k": 2}, {"kind": "l1-of-mu"}, "truncation"),
        ({"kind": "composed", "base": {"kind": "rank_one", "g": [1.0, 2.0, 3.0]}, "k": 3}, {"kind": "L1", "d": 3}, "atoms"),
        ({"kind": "composed", "base": {"kind": "random", "seed": 2}, "k": 1}, {"kind": "LINF", "d": 3}, "atoms"),
    ],
)
def test_each_scenario_measure_kind_gets_its_record(measure, value_space, kind):
    from vmlab.vector_measure import Indicator, RankOne, Truncation

    data = _preset("canonical-l1")
    data["space"]["weights"] = [0.1, 0.2, 0.3, 0.4]
    data.update(measure=measure, value_space=value_space, experiment={"kind": "basis"})
    m = build_scenario(data).measure
    records = {"indicator": Indicator, "rank_one": RankOne, "truncation": Truncation, "atoms": type(None)}
    assert type(m.record) is records[kind]
    if kind == "truncation":
        assert m.record == Truncation(measure["k"])
    if kind == "rank_one":
        g = np.array(measure["g"], dtype=float)
        assert m.record.g.tobytes() == g.tobytes()
        assert m.atoms.tobytes() == (m.space.weights[:, None] * g[None, :]).tobytes()


def test_readme_experiment_table_lists_each_kinds_parameters():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("Experiment kinds and parameters", 1)[1].split("\n\n")[1]
    rows = dict(re.match(r"\| `(\w+)` +\|(.*)", line).groups() for line in table.splitlines()[2:])
    assert rows.keys() == EXPERIMENTS.keys()
    for kind, (_, params) in EXPERIMENTS.items():
        for key in params:
            assert f"`{key}`" in rows[kind], (kind, key)
        for key in {"seed", "exact_cutoff", "tolerance"} - params.keys():
            assert f"`{key}`" not in rows[kind], (kind, key)


@pytest.mark.parametrize(
    "sections, where",
    [
        # the default other measure is the indicator, which needs d = n
        ({"value_space": {"kind": "L1", "d": 21}, "measure": {"kind": "random", "seed": 1}}, "experiment.other"),
        ({"value_space": {"kind": "L1", "d": 3}, "measure": {"kind": "indicator"}}, "measure"),
        ({"measure": {"kind": "composed", "base": {"kind": "matrix", "rows": [[1.0]]}, "k": 1}}, "measure.base"),
        ({"measure": {"kind": "composed", "base": {"kind": "indicator"}, "k": 9}}, "measure"),
        ({"measure": {"kind": "rank_one", "g": [1.0]}}, "measure"),
        ({"experiment": {"kind": "identity", "other": {"kind": "bogus"}}}, "experiment.other"),
    ],
)
def test_measure_validation_messages_name_their_section(sections, where):
    data = _preset("canonical-l1")
    data.update({"experiment": {"kind": "identity"}, **sections})
    with pytest.raises(ValidationError) as info:
        build_scenario(data)
    assert str(info.value).startswith(f"{where}: ")


def test_rn_net_expectation_levels_of_the_indicator_are_recorded(monkeypatch):
    from vmlab.vector_measure import Expectation

    calls = _spy_run_net(monkeypatch)
    data = _preset("canonical-l1")
    data["experiment"] = {"kind": "rn_net", "family": "expectation", "levels": 2}
    run(build_scenario(data))
    [(_, seen, _, _, _)] = calls
    assert [type(level.record) for level in seen] == [Expectation] * 3
    assert [level.record.p.n_blocks for level in seen] == [1, 2, 4]
