"""One golden report per experiment kind, compared byte for byte.

Each case runs one scenario through ``harness.run`` and writes it as the
command line would: canonical JSON without ``metadata.wall_time_s``, or the
CSV table.  The files under ``tests/golden/`` are the expected bytes.  A
change that moves bits regenerates them in the same commit with

    PYTHONPATH=src python tests/test_golden_reports.py

and lists the moved rows in ``CHANGES.md``; the diff of the files is that list.
"""

import copy
from pathlib import Path

import pytest

from helpers import numerics
from vmlab.harness import PRESETS, build_scenario, dumps_csv, dumps_report, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _scenario(preset, **sections):
    data = copy.deepcopy(PRESETS[preset])
    data.update(sections)
    return data


_RANDOM_L2 = dict(
    space={"n": 8, "weights": "uniform"},
    value_space={"kind": "L2", "d": 4, "scale": 1.0},
    measure={"kind": "random", "seed": 5},
    functions=[[1.0, -2.0, 0.0, 3.0, 0.5, -1.0, 2.0, 1.0]],
)
_RN_NET = _scenario("canonical-l1", **_RANDOM_L2, experiment={"kind": "rn_net", "family": "coordinate"})

# file name -> (scenario, format)
CASES = {
    **{f"{name}.json": (_scenario(name), "json") for name in PRESETS},
    "rn-net-coordinate-random-l2.json": (_RN_NET, "json"),
    "rn-net-coordinate-random-l2.csv": (_RN_NET, "csv"),
    "series-gap.json": (
        _scenario("canonical-l1", experiment={"kind": "series_gap", "sign": -1, "samples": 16, "seed": 3}),
        "json",
    ),
    "martingale-random-l2.json": (
        _scenario("canonical-l1", **_RANDOM_L2, experiment={"kind": "martingale", "levels": 3}),
        "json",
    ),
}


def render(scenario: dict, fmt: str) -> str:
    report = run(build_scenario(scenario))
    assert "error" not in report, report["error"]
    if fmt == "csv":
        return dumps_csv(report)
    del report["metadata"]["wall_time_s"]
    return dumps_report(report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_experiment_kind_reproduces_its_golden_report(name):
    text = render(*CASES[name])
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert text == golden, f"{name} gave other bytes than its golden report on {numerics()}"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, case in sorted(CASES.items()):
        (GOLDEN_DIR / name).write_text(render(*case), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}")
