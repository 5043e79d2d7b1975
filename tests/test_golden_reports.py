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

# d = 21 is past the L1 corner limit: the rows on f's support are nonnegative,
# so the closed form holds, and the mixed-sign last row, where f is 0, must
# not refuse it
_MATRIX_L1_D21 = dict(
    space={"n": 10, "weights": [0.5 + (i * 3 % 10) / 7 for i in range(10)]},
    value_space={"kind": "L1", "d": 21, "scale": [1.0 + (j % 5) / 3 for j in range(21)]},
    measure={
        "kind": "matrix",
        "rows": [[((i * 7 + j * 5) % 13 + 1) / 9 for j in range(21)] for i in range(9)]
        + [[(-1.0) ** j * (j + 1) / 3 for j in range(21)]],
    },
    functions=[[(-1.0) ** i * (1 + i % 4) / 3 for i in range(9)] + [0.0]],
)
# a dense G, so the sampled family sums each sample's columns; the small
# weights make the samples, not the part, attain c_estimate
_RANDOM_L1_OF_MU = dict(
    space={"n": 8, "weights": [(1 + i * 5 % 8) / 64 for i in range(8)]},
    value_space={"kind": "l1-of-mu"},
    measure={"kind": "random", "seed": 3},
    functions=[[1.0, -2.0, 0.0, 3.0, 0.5, -1.0, 2.0, 1.0]],
)

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
    "norm-matrix-l1-d21.json": (
        _scenario("canonical-l1", **_MATRIX_L1_D21, experiment={"kind": "norm"}),
        "json",
    ),
    "series-gap-random-l1-of-mu.json": (
        _scenario("canonical-l1", **_RANDOM_L1_OF_MU, experiment={"kind": "series_gap", "samples": 4}),
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
