"""vmlab benchmark: one seeded workload driven as a closed loop, checked by oracles.

Run from the repository root:

    python3 bench/run.py --workload norm-table --seed 1 --seconds 20 --trace 0

Workloads: norm-table, nets, operators, koethe (see bench/README.md).  One
client runs one op at a time.  An op is one generated scenario taken through
``harness.build_scenario`` -> ``harness.run`` -> ``harness.dumps_report``,
except on koethe, where it is one ``l1m_norm.koethe_dual_norm_info`` call.

``--trace 0`` runs whole rounds until ``--seconds`` have passed and reports
the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds once
plain and once traced, so that its work counts repeat exactly, and reports
the per-layer metrics and the tracing overhead.  Both check every output
outside the timed phase, print one line per metric, a provenance line, and
last a JSON object with the keys correct, attempted, failed and metrics.
The same record and, for traced runs, every span go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
RSS_PROBES = 3  # fresh processes per run; peak_rss_mb is their median
FIRST_ROUNDS = 2  # every run completes these; the outputs hash covers them
TRACE_ROUNDS = {"norm-table": 4, "nets": 3, "operators": 4, "koethe": 4}
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

# Machine-speed calibration.  On a shared 2-core VM the speed of one process
# drifted by up to 2x over seconds to minutes, far more than the changes the
# benchmark must resolve.  Before every op the loop times a fixed
# kernel that does not touch vmlab, and each op latency is rescaled by the
# mean of the kernel timings just before and just after it, to the speed at
# which the kernel takes CALIBRATION_REFERENCE_S.  Op and set-up times are
# reported at that speed.
CALIBRATION_REFERENCE_S = 2.0e-3
_SMALL = np.linspace(0.5, 2.0, 16)


def calibration_seconds() -> float:
    """Time 400 small-array numpy reductions, like the norm engines' inner loops."""
    start = time.perf_counter()
    total = 0.0
    for i in range(400):
        v = _SMALL * (i % 7)
        total += float(np.sqrt(np.sum(v * v)))
    return time.perf_counter() - start


PR_SET_THP_DISABLE = 41  # prctl option, <linux/prctl.h>


def disable_huge_pages() -> bool:
    """Keep transparent huge pages out of this process.

    numpy asks for huge pages on large arrays, and whether the kernel can
    supply one at fault time depends on how fragmented the host's memory is.
    np.eye(4096) touches one 4 KiB page per row, 16 MiB in all, but 128 MiB
    when it is backed by 2 MiB pages, so peak_rss_mb on operators jumped
    between two levels from run to run.  Without huge pages the resident set
    counts the pages the program touches.  Only the peak-memory probes call
    this; the timed loop keeps numpy's default.  Returns whether the kernel
    agreed.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):  # not Linux
        return False


def load_vmlab():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "vmlab" / "__init__.py").is_file():
        print(f"bench: no vmlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import vmlab

    if Path(vmlab.__file__).resolve().parent != (src / "vmlab").resolve():
        print(f"bench: imported vmlab from {vmlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return vmlab


@dataclass
class Execution:
    key: tuple  # (round index, op index)
    seconds: float
    calibration: float  # kernel seconds just before the op
    output: Any = None
    error: Optional[str] = None


def execute(op):
    """One op, exactly as a user reaches it."""
    from vmlab import harness, l1m_norm

    if op.koethe is not None:
        return l1m_norm.koethe_dual_norm_info(op.measure, op.g, seed=op.koethe["seed"])
    return harness.dumps_report(harness.run(harness.build_scenario(op.scenario)))


def run_round(ops, index, tracer=None) -> list:
    """Run one round, timing the calibration kernel before every op."""
    done = []
    for j, op in enumerate(ops):
        calibration = calibration_seconds()
        if tracer is not None:
            tracer.op = f"{index}/{j}"
        start = time.perf_counter()
        try:
            out = execute(op)
        except Exception as exc:  # a failing op is counted and the loop goes on
            seconds = time.perf_counter() - start
            done.append(Execution((index, j), seconds, calibration, error=repr(exc)))
            continue
        done.append(Execution((index, j), time.perf_counter() - start, calibration, out))
    return done


def at_reference_speed(executions) -> list:
    """Op latencies rescaled to the reference speed; the kernel is timed once more at the end."""
    before = [e.calibration for e in executions]
    after = before[1:] + [calibration_seconds()]
    return [
        e.seconds * CALIBRATION_REFERENCE_S * 2.0 / (b + a)
        for e, b, a in zip(executions, before, after)
    ]


def canonical(op, output) -> str:
    """Output text with wall time removed; byte-identical across runs of one op."""
    from spans import without_wall_time

    if op.koethe is None:
        return without_wall_time(output)
    maximizer = None if output.maximizer is None else output.maximizer.coeffs.tolist()
    return json.dumps(
        {"method": output.method, "value": output.value, "maximizer": maximizer},
        sort_keys=True,
    )


def check(workload, op, output) -> list:
    import oracles

    if op.koethe is not None:
        maximizer = None if output.maximizer is None else output.maximizer.coeffs
        return oracles.check_koethe(op.koethe, output.value, maximizer)
    return oracles.CHECKS[workload](op.scenario, json.loads(output))


def verify(workload, rounds, executions):
    """Oracle verdict per distinct op, repeats compared byte for byte to the first run.

    Returns (failed count, failure messages, canonical text per op key).
    """
    texts, verdicts, messages = {}, {}, []
    failed = 0
    for e in executions:
        op = rounds[e.key[0]][e.key[1]]
        problems = [e.error] if e.error else []
        if not problems:
            text = canonical(op, e.output)
            if e.key not in texts:
                texts[e.key] = text
                verdicts[e.key] = check(workload, op, e.output)
            elif text != texts[e.key]:
                problems.append("output differs from an earlier run of the same op")
            problems += verdicts[e.key]
        if problems:
            failed += 1
            messages.append(f"{op.template} {e.key}: {'; '.join(map(str, problems))}")
    return failed, messages, texts


def outputs_sha256(rounds, texts) -> str:
    digest = hashlib.sha256()
    for i in range(FIRST_ROUNDS):
        for j in range(len(rounds[i])):
            digest.update(texts.get((i, j), "<missing>").encode())
            digest.update(b"\0")
    return digest.hexdigest()


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    On Linux getrusage's ru_maxrss keeps, across exec, the peak of the
    process that spawned this one, so in a probe it would read the run
    process's peak.  VmHWM belongs to the current image alone.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:  # not Linux
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss(workload: str, seed: int):
    """(median peak RSS in MB, probe records) of fresh processes that run the first round.

    Each probe turns huge pages off, runs every op of the first round once
    and reports its peak resident memory.  Fresh processes keep the figure
    free of what the timed loop's later rounds leave in the allocator, and
    the median of several drops a rare reading some 124 MB high (seen once
    in about thirty operators runs, cause unknown).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--rss-probe"]
    records = []
    for _ in range(RSS_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"rss probe failed ({done.returncode}): {done.stderr.strip()}")
        records.append(json.loads(lines[-1]))
    return statistics.median(r["peak_rss_mb"] for r in records), records


def setup_seconds(workload: str, seed: int):
    """(median set-up time at reference speed, wall-clock probe times).

    Each fresh process is rescaled like an op, by the kernel timed just
    before and just after it (median of nine timings each side).
    """
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        before = statistics.median(calibration_seconds() for _ in range(9))
        wall.append(setup_probe_seconds(workload, seed))
        after = statistics.median(calibration_seconds() for _ in range(9))
        scaled.append(wall[-1] * CALIBRATION_REFERENCE_S * 2.0 / (before + after))
    return statistics.median(scaled), wall


def exact_share(workload, rounds, executions) -> float:
    """Share of reported values whose engine label is exact or closed_form.

    norm-table reads the method column and koethe the result's method.  Net
    rows carry no label, so nets replays its first round traced and reads the
    labels of the norm_best calls behind norm_gap and deviation.  No norm
    engine runs on operators, whose values all come from the exact column
    formula, so it is 1 there.
    """
    from oracles import ENGINE_EXACT

    if workload == "operators":
        return 1.0
    if workload == "nets":
        from spans import Tracer

        with Tracer() as tracer:
            run_round(rounds[0], 0, tracer)
        labels = [s[8] for s in tracer.spans if s[1] == "l1m_norm.norm_best" and s[6] is None]
        return sum(label in ENGINE_EXACT for label in labels) / len(labels)
    exact = total = 0
    for e in executions:
        if e.error:
            continue
        if workload == "koethe":
            labels = [e.output.method]
        else:
            labels = [row[2] for row in json.loads(e.output)["results"]["rows"]]
        exact += sum(label in ENGINE_EXACT for label in labels)
        total += len(labels)
    return exact / total


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n


def measure(workload, seed, rounds, seconds):
    """End-to-end metrics: whole rounds for about ``seconds``, then the oracles."""
    setup_s, probes = setup_seconds(workload, seed)
    executions = []
    count = 0
    start = time.perf_counter()
    while True:  # whole rounds, so every run has the same op mix
        i = count % len(rounds)
        executions += run_round(rounds[i], i)
        count += 1
        if count >= FIRST_ROUNDS and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    scaled = at_reference_speed(executions)
    failed, messages, texts = verify(workload, rounds, executions)
    peak_mb, rss_probes = peak_rss(workload, seed)
    wall = [e.seconds for e in executions]
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "exact_share": (exact_share(workload, rounds, executions), "share"),
    }
    by_template = {}
    for e, s in zip(executions, scaled):
        by_template.setdefault(rounds[e.key[0]][e.key[1]].template, []).append(s * 1e3)
    notes = {
        "samples": len(scaled),
        "rounds": count,
        "tail_percentile": tail_pct,
        "failed_frac": failed / len(executions),
        "calibration_median_s": statistics.median(e.calibration for e in executions),
        "wall_ops_per_s": len(wall) / elapsed,
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_op_tail_ms": tail(wall)[0] * 1e3,
        "wall_setup_s": statistics.median(probes),
        "setup_probes_s": probes,
        "rss_probes": rss_probes,
        "template_p50_ms": {t: statistics.median(v) for t, v in by_template.items()},
    }
    return metrics, notes, executions, failed, messages, texts


def trace(workload, seed, rounds):
    """Per-layer metrics: the first TRACE_ROUNDS rounds plain, then traced."""
    from spans import Tracer, layer_metrics

    indices = range(TRACE_ROUNDS[workload])
    plain = [e for i in indices for e in run_round(rounds[i], i)]
    plain_rate = len(plain) / sum(at_reference_speed(plain))
    tracer = Tracer()
    with tracer:
        traced = [e for i in indices for e in run_round(rounds[i], i, tracer)]
    traced_rate = len(traced) / sum(at_reference_speed(traced))
    failed, messages, texts = verify(workload, rounds, plain + traced)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s")
    notes = {
        "rounds": len(indices),
        "spans": len(tracer.spans),
        "plain_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "failed_frac": failed / len(plain + traced),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{workload}-seed{seed}.csv")
    return metrics, notes, plain + traced, failed, messages, texts


def main(argv=None) -> int:
    vmlab = load_vmlab()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rounds = workloads.generate(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.rss_probe:
        huge_pages_off = disable_huge_pages()
        for op in rounds[0]:
            execute(op)
        print(json.dumps({"peak_rss_mb": own_peak_rss_mb(), "huge_pages_off": huge_pages_off}))
        return 0

    if args.trace:
        outcome = trace(args.workload, args.seed, rounds)
    else:
        outcome = measure(args.workload, args.seed, rounds, args.seconds)
    metrics, notes, executions, failed, messages, texts = outcome
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vmlab": vmlab.__version__,
        "vml_threads_set": "VML_THREADS" in os.environ,
        "outputs_sha256": outputs_sha256(rounds, texts),
        **notes,
    }
    annotations = {}
    if not args.trace:
        annotations = {
            "op_p50_ms": f"({notes['samples']} samples)",
            "op_tail_ms": f"(p{notes['tail_percentile']:.1f} of {notes['samples']} samples)",
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit} {annotations.get(name, '')}".rstrip())
    print(f"{'failed_frac':40s} {notes['failed_frac']:16.6f} share ({failed} of {len(executions)})")
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
