"""The benchmark's hooks into vmlab resolve on the vmlab under test.

``bench/spans.py`` wraps vmlab functions by module and name, and the
``nets`` workload reads its ``exact_share`` from the labels of traced
``norm_best`` calls.  A traced name renamed away crashes the whole benchmark
run, and a nets round without ``norm_best`` calls makes that share divide by
zero.  These tests read ``bench/`` and change nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_a_traced_nets_round_has_exact_norm_best_spans():
    from vmlab import harness

    workloads = _bench_module("workloads")
    with spans.Tracer() as tracer:
        for op in workloads.generate("nets", 1)[0]:
            harness.dumps_report(harness.run(harness.build_scenario(op.scenario)))
    best = [s for s in tracer.spans if s[1] == "l1m_norm.norm_best" and s[6] is None]
    assert any(s[8] in ("exact", "closed_form") for s in best), len(best)


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
