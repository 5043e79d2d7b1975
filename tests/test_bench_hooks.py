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
