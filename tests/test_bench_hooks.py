"""The benchmark's hooks into vmlab resolve on the vmlab under test.

``bench/spans.py`` wraps vmlab functions by module and name, and the
``nets`` workload reads its ``exact_share`` from the labels of traced
``norm_best`` calls.  A traced name renamed away crashes the whole benchmark
run, and a nets round without ``norm_best`` calls makes that share divide by
zero.  The golden hashes pin the same-bits contract: the outputs of every
workload's first rounds at seeds 1 and 47, as ``bench/run.py`` hashes them.
These tests read ``bench/`` and change nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import numerics

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    """``bench/<name>.py`` as a module, registered under a name of its own."""
    key = f"_vmlab_bench_{name}"
    spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
    module = sys.modules[key] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


spans = _bench_module("spans")


@pytest.mark.parametrize("name", sorted(spans.TRACED))
def test_every_traced_target_resolves(name):
    module, attr, _ = spans.TRACED[name]
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), name


@pytest.fixture
def run(monkeypatch):
    """``bench/run.py``, with the modules it imports by top-level name registered for this test."""
    for name in ("oracles", "workloads"):
        monkeypatch.setitem(sys.modules, name, _bench_module(name))
    monkeypatch.setitem(sys.modules, "spans", spans)
    return _bench_module("run")


def test_a_traced_nets_round_has_exact_norm_best_spans(run):
    # the traced rounds of ``bench/run.py --workload nets --seed 1 --trace 1``: nets
    # take no hill climbing, and each norm_best call runs one exact engine
    rounds = sys.modules["workloads"].generate("nets", 1)
    with spans.Tracer() as tracer:
        executions = [e for i in range(run.TRACE_ROUNDS["nets"]) for e in run.run_round(rounds[i], i, tracer)]
    assert [e.error for e in executions if e.error] == []
    best = [s for s in tracer.spans if s[1] == "l1m_norm.norm_best" and s[6] is None]
    assert any(s[8] in ("exact", "closed_form") for s in best), len(best)
    calls = {name: value for name, (value, _) in spans.layer_metrics(tracer.spans).items() if name.endswith(".calls")}
    assert calls["opt_engine.hill_climb.calls"] == calls["l1m_norm.norm_heuristic.calls"] == 0, calls
    exact = calls["l1m_norm.norm_exact.calls"] + calls["l1m_norm.norm_closed_form.calls"]
    assert 0 < calls["l1m_norm.norm_best.calls"] == exact, calls


def test_the_lp_work_count_reads_the_row_array_program(monkeypatch):
    """``_tableau_cells`` counts the Köthe LP through its ``bounds`` and
    ``constraints`` views: m x (n + m + 1), the count the tuple rows gave."""
    import numpy as np

    from vmlab import MeasureSpace, NormSpec, SimpleFunction, VectorMeasure, koethe_dual_norm_info, l1m_norm

    programs = []
    solve_lp = l1m_norm.solve_lp
    monkeypatch.setattr(l1m_norm, "solve_lp", lambda lp: programs.append(lp) or solve_lp(lp))
    rng = np.random.default_rng(10)
    n, d = 12, 10
    space = MeasureSpace(rng.uniform(0.2, 1.5, size=n))
    m = VectorMeasure(space, NormSpec("L1", d, rng.uniform(0.5, 2.0, size=d)), rng.normal(size=(n, d)))
    koethe_dual_norm_info(m, SimpleFunction(space, rng.normal(size=n)))
    (lp,) = programs
    assert spans._tableau_cells((lp,), {}, None) == 512 * (12 + 512 + 1)
    rows = lp.constraints
    assert len(rows) == lp.b.size == 512
    for (a_i, rel, b_i), want_a, want_b in zip(rows, lp.a, lp.b):
        assert a_i.tobytes() == want_a.tobytes() and rel == "<=" and b_i == want_b == 1.0


# ``outputs_sha256`` of the first ``run.FIRST_ROUNDS`` rounds, by (seed, workload)
GOLDEN = {
    (1, "norm-table"): "83673c80685b632c0c0343ce346197831fc2fb4d1521e929ce5f49dd77c52719",
    (1, "nets"): "934bea4b6d5e51b87d976c5e380d6f4908024c9f1ffe39dfd85b463eadbc5b11",
    (1, "operators"): "c9ec97f32680a65add11ff037b17434cb4a4ac19f654b9b36c9675989a87f1fa",
    (1, "koethe"): "e03ec8981f4d88af5ac6ac9b9e91ca5e2ecd7e6e46239e507195d3ae1f36c981",
    (47, "norm-table"): "5be3c405d19291735284d03c47b430c3f4b4da498843009aed286321a97b8911",
    (47, "nets"): "547e63906204682c4c04f51d7c958a11d264b5432bd6a35861c5c151352bd203",
    (47, "operators"): "ad12f23166279755a87d62b92fc457600f2d0e27d1f614726ab3572a2d95db19",
    (47, "koethe"): "6fd81fd94ee8367551f2bd3f7be9b585dda771436f98bef33337d46414476b5e",
}


@pytest.mark.parametrize("seed, workload", sorted(GOLDEN))
def test_the_first_rounds_reproduce_the_golden_output_hashes(run, seed, workload):
    rounds = sys.modules["workloads"].generate(workload, seed)
    executions = [e for i in range(run.FIRST_ROUNDS) for e in run.run_round(rounds[i], i)]
    failed, messages, texts = run.verify(workload, rounds, executions)
    assert failed == 0, messages
    assert run.outputs_sha256(rounds, texts) == GOLDEN[seed, workload], (
        f"{workload} at seed {seed} gave other output bytes than the golden hash on {numerics()}"
    )
