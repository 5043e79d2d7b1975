"""Wall-time and peak-memory bounds on the lab's objects at scale.

Each case builds one object at a size where a second copy of an atom
matrix, or a table built whole, would show: a net whose levels build no
atoms, a martingale net whose block-indicator tests are held once, series
gaps on recorded measures, a measure and each measure derived from it held
once, and the Köthe LP, the identity and the L2 Köthe ascent at their
engine limits.  The test runs ``python tests/test_bounds.py CASE`` in a
fresh process with the inherited environment and a timeout of the case's
wall bound.  The child runs the case, which raises if the result is wrong,
and prints its own VmHWM (the peak resident set, from /proc/self/status) on
its last line; the test holds that to the case's memory bound.  The child
imports no pytest, so the peak is the case's and the interpreter's alone.

Run one case by hand, from the repository root:

    PYTHONPATH=src python tests/test_bounds.py combine-random-l2-n4096
"""

import json
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

N = 4096  # 128 MB per n x n float64 matrix


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def _cli(argv: list, scenario: dict):
    """``vmlab.cli.main`` on the scenario written to a file, the report to another."""
    from vmlab.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code = main([*argv, "--scenario", str(path), "--out", str(Path(tmp, "report.json"))])
    assert code == 0, f"vmlab {' '.join(argv)} exited {code}"


def _scenario(n: int, value_space: dict, measure: dict, functions: list, experiment: dict) -> dict:
    return {"schema_version": 1, "space": {"n": n, "weights": "uniform"}, "value_space": value_space,
            "measure": measure, "functions": functions, "experiment": experiment}


def _basis_net():
    n = 512
    f = [(-1.0) ** i * (1 + i % 7) for i in range(n)]
    _cli(["converge", "basis"], _scenario(n, {"kind": "l1-of-mu"}, {"kind": "indicator"}, [f], {"kind": "basis"}))


def _martingale_net():
    n = 8192
    f = [(-1.0) ** i * (1 + i % 7) for i in range(n)]
    scenario = _scenario(n, {"kind": "l1-of-mu"}, {"kind": "indicator"}, [f], {"kind": "martingale"})
    _cli(["converge", "martingale", "--levels", "10"], scenario)


def _series_gap(measure: dict):
    scenario = _scenario(N, {"kind": "l1-of-mu"}, measure, [], {"kind": "series_gap"})
    _cli(["series-gap", "--samples", "64"], scenario)


def _random_l2():
    from vmlab import build_scenario

    value_space = {"kind": "L2", "d": N, "scale": 1.0}
    scenario = _scenario(N, value_space, {"kind": "random", "seed": 1}, [], {"kind": "norm"})
    return build_scenario(scenario).measure


def _derived(build: str):
    from vmlab import Partition, basis_truncated_measure, combine, martingale_measure

    m = _random_l2()
    builds = {
        "martingale_measure": lambda: martingale_measure(m, Partition(m.space, np.arange(N) // (N // 2))),
        "basis_truncated_measure": lambda: basis_truncated_measure(m, N // 2),
        "combine": lambda: combine(m, 0.5, m),
    }
    assert builds[build]().atoms.shape == (N, N)  # reading the atoms builds them


def _koethe(kind: str, n: int, d: int, seed: int):
    from vmlab import MeasureSpace, NormSpec, SimpleFunction, VectorMeasure, koethe_dual_norm_info

    rng = np.random.default_rng(seed)
    space = MeasureSpace(rng.uniform(0.2, 1.5, size=n))
    m = VectorMeasure(space, NormSpec(kind, d, rng.uniform(0.5, 2.0, size=d)), rng.normal(size=(n, d)))
    return koethe_dual_norm_info(m, SimpleFunction(space, rng.normal(size=n)))


def _koethe_lp():
    from vmlab import EXACT
    from vmlab.l1m_norm import KOETHE_CORNER_LIMIT

    result = _koethe("L1", 12, KOETHE_CORNER_LIMIT, 14)
    assert result.method == EXACT and np.isfinite(result.value), result


def _identity():
    from vmlab import MeasureSpace, density_norm_identity, indicator_measure, rank_one_measure
    from vmlab.normed_space import L1_EXTREME_LIMIT

    n = L1_EXTREME_LIMIT
    rng = np.random.default_rng(20)
    space = MeasureSpace(rng.uniform(0.2, 1.5, size=n))
    rep = density_norm_identity(indicator_measure(space), rank_one_measure(space, rng.normal(size=n)), 0.75)
    assert rep.gap <= 1e-10, rep


def _l2_ascent():
    from vmlab import HEURISTIC
    from vmlab.l1m_norm import DEFAULT_EXACT_CUTOFF

    result = _koethe("L2", DEFAULT_EXACT_CUTOFF, 8, 16)
    assert result.method == HEURISTIC and 0.0 < result.value < np.inf, result


# name -> (case, wall-time bound in s, VmHWM bound in MB)
BOUNDS = {
    # the levels build no atoms; the target's n x n atoms take 2 MB
    "basis-net-indicator-n512": (_basis_net, 60, 256),
    # 1024 finest blocks: f and the block indicators take 67 MB as one array; with a second
    # copy of them, one SimpleFunction per block, the run peaked at 380 MB
    "martingale-net-indicator-n8192-levels10": (_martingale_net, 60, 352),
    # recorded measures, 64 samples; the n x n atoms alone would take 128 MB
    "series-gap-indicator-n4096": (partial(_series_gap, {"kind": "indicator"}), 60, 128),
    "series-gap-rank-one-n4096": (
        partial(_series_gap, {"kind": "rank_one", "g": [(-1.0) ** i * (1 + i % 3) for i in range(N)]}), 60, 128
    ),
    # the atoms take 128 MB, and a second copy would pass 256 MB
    "random-l2-n4096": (_random_l2, 60, 224),
    # the source and the new atoms take 256 MB, and a third copy would pass 384 MB
    **{
        f"{build}-random-l2-n4096": (partial(_derived, build), 60, 352)
        for build in ("martingale_measure", "basis_truncated_measure", "combine")
    },
    # L1, n = 12, d = KOETHE_CORNER_LIMIT = 14: 8192 ball rows, where the full tableau would take 537 MB
    "koethe-lp-l1-d14": (_koethe_lp, 60, 128),
    # l1-of-mu, n = d = L1_EXTREME_LIMIT = 20: 2^19 corners scored 2^12 at a time, where the
    # whole half and its products took 277 MB
    "identity-l1-of-mu-n20": (_identity, 60, 96),
    # n = DEFAULT_EXACT_CUTOFF = 16, d = 8: 32 x 49 stacked searches of 2^15 sign patterns each
    "koethe-ascent-l2-n16": (_l2_ascent, 60, 256),
}


def pytest_generate_tests(metafunc):
    metafunc.parametrize("name", list(BOUNDS))


def test_each_case_stays_within_its_wall_time_and_peak_memory(name):
    _, seconds, megabytes = BOUNDS[name]
    child = subprocess.run([sys.executable, __file__, name], capture_output=True, text=True, timeout=seconds)
    assert child.returncode == 0, child.stderr
    peak = float(child.stdout.split()[-2])
    assert peak <= megabytes, f"{name} peaked at VmHWM {peak:.1f} MB, above its bound of {megabytes} MB"


if __name__ == "__main__":
    BOUNDS[sys.argv[1]][0]()
    print(f"VmHWM {_vmhwm_mb():.1f} MB")
