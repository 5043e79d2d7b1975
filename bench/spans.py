"""Span recorder for the traced run, and the per-layer metrics drawn from it.

``Tracer.install`` replaces each traced vmlab function at every module
namespace that binds it (``vmlab.harness.norm_best`` and
``vmlab.approx_nets.norm_best`` are separate bindings of one function), so
calls between modules are seen.  Functions that run once per sign pattern or
per draw (``normed_space.norm``, ``SplitMix64.next_u64``) are not wrapped;
their counts are derived from the arguments of the enclosing call.

A span is (id, name, start_ns, end_ns, parent id, op id "round/op", error,
work, label, thread).
Parents come from a thread-local stack; a thread with an empty stack (a
harness sweep pool thread) attaches to the innermost open span of the client
thread, so its spans belong to the current op.  The thread is recorded as
``"client"`` or ``"pool"``.
"""

from __future__ import annotations

import itertools
import re
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from vmlab.errors import CapacityExceeded


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _patterns(args, kwargs, result):
    k = int(np.count_nonzero(_arg(args, kwargs, 1, "f").coeffs))
    return 1 << (k - 1) if k else 0


def _corners(args, kwargs, result):
    """Dual extreme points the closed form scores: 2d, one, or 2^d."""
    m, f = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "f")
    if m.X.kind == "LINF":
        return 2 * m.X.dim
    rows = m.atoms[np.flatnonzero(f.coeffs)]
    if not rows.size or np.all((rows.min(axis=1) >= 0.0) | (rows.max(axis=1) <= 0.0)):
        return 1
    return 1 << m.X.dim


def _tableau_cells(args, kwargs, result):
    """Rows x columns of the initial tableau: structural + slack + right-hand side."""
    lp = _arg(args, kwargs, 0, "lp")
    bounds = lp.bounds if lp.bounds is not None else [(0.0, None)] * lp.objective.size
    columns = sum(2 if lo is None and hi is None else 1 for lo, hi in bounds)
    ranged = sum(1 for lo, hi in bounds if lo is not None and hi is not None)
    rows = len(lp.constraints) + ranged
    slacks = sum(1 for _, rel, _ in lp.constraints if rel != "=") + ranged
    return rows * (columns + slacks + 1)


def _operand_bytes(args, kwargs, result):
    return _arg(args, kwargs, 0, "S").entries.nbytes


def _result_bytes(args, kwargs, result):
    return result.entries.nbytes


def _draws(args, kwargs, result):
    return _arg(args, kwargs, 1, "k")  # args[0] is the generator


_WALL_TIME = re.compile(r'^\s*"wall_time_s": .*\n', re.M)


def without_wall_time(report: str) -> str:
    """Report text without its wall-time line, the one field that varies between runs."""
    return _WALL_TIME.sub("", report)


def _text_bytes(args, kwargs, result):
    return len(without_wall_time(result))


# span name -> (module, attribute, work count from the call); a dotted
# attribute names a method on a class
TRACED = {
    "l1m_norm.norm_exact": ("vmlab.l1m_norm", "norm_exact", _patterns),
    "l1m_norm.norm_closed_form": ("vmlab.l1m_norm", "norm_closed_form", _corners),
    "l1m_norm.norm_heuristic": ("vmlab.l1m_norm", "norm_heuristic", None),
    "l1m_norm.norm_best": ("vmlab.l1m_norm", "norm_best", None),
    "l1m_norm.deviation": ("vmlab.l1m_norm", "deviation", None),
    "l1m_norm.koethe_dual_norm_info": ("vmlab.l1m_norm", "koethe_dual_norm_info", None),
    "opt_engine.hill_climb": ("vmlab.opt_engine", "hill_climb", None),  # evals counted below
    "opt_engine.solve_lp": ("vmlab.opt_engine", "solve_lp", _tableau_cells),
    "approx_nets.run_net": ("vmlab.approx_nets", "run_net", None),
    "approx_nets.weakstar_gap": ("vmlab.approx_nets", "weakstar_gap", None),
    "approx_nets.martingale_net": ("vmlab.approx_nets", "martingale_net", None),
    "approx_nets.basis_net": ("vmlab.approx_nets", "basis_net", None),
    "approx_nets.rn_operator": ("vmlab.approx_nets", "rn_operator", None),
    "approx_nets.associated_measure": ("vmlab.approx_nets", "associated_measure", None),
    "daugavet.opnorm_from_l1": ("vmlab.daugavet", "opnorm_from_l1", _operand_bytes),
    "daugavet.identity_operator": ("vmlab.daugavet", "identity_operator", _result_bytes),
    "daugavet.rank_one_operator": ("vmlab.daugavet", "rank_one_operator", _result_bytes),
    "daugavet.combine_operators": ("vmlab.daugavet", "combine_operators", _result_bytes),
    "daugavet.daugavet_defect": ("vmlab.daugavet", "daugavet_defect", None),
    "daugavet.center_defect": ("vmlab.daugavet", "center_defect", None),
    "daugavet.series_approximation_gap": ("vmlab.daugavet", "series_approximation_gap", None),
    "daugavet.density_norm_identity": ("vmlab.daugavet", "density_norm_identity", None),
    "rng.normals": ("vmlab.rng", "SplitMix64.normals", _draws),
    "harness.build_scenario": ("vmlab.harness", "build_scenario", None),
    "harness.run": ("vmlab.harness", "run", None),
    "harness.dumps_report": ("vmlab.harness", "dumps_report", _text_bytes),
}

# spans reported together under one layer name
GROUPS = {
    "approx_nets.martingale_net": "approx_nets.net_build",
    "approx_nets.basis_net": "approx_nets.net_build",
    "approx_nets.rn_operator": "approx_nets.net_build",
    "approx_nets.associated_measure": "approx_nets.net_build",
    "daugavet.identity_operator": "daugavet.operator_alloc",
    "daugavet.rank_one_operator": "daugavet.operator_alloc",
    "daugavet.combine_operators": "daugavet.operator_alloc",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_stack = None
        self._client_thread = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, work):
        tracer = self
        counts_evals = name == "opt_engine.hill_climb"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            client = tracer._client_stack
            thread = "client" if threading.get_ident() == tracer._client_thread else "pool"
            parent = stack[-1] if stack else (client[-1] if client else -1)
            sid = next(tracer._ids)
            evals = [0]
            if counts_evals:
                objective = _arg(args, kwargs, 1, "objective")

                def counted(eps):
                    evals[0] += 1
                    return objective(eps)

                args = (args[0], counted) + tuple(args[2:]) if len(args) > 1 else args
                if "objective" in kwargs:
                    kwargs = dict(kwargs, objective=counted)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.op, type(exc).__name__, 0, None, thread)
                )
                raise
            end = time.perf_counter_ns()
            stack.pop()
            count = evals[0] if counts_evals else (work(args, kwargs, result) if work else 0)
            label = getattr(result, "method", None)
            tracer.spans.append(
                (sid, name, start, end, parent, tracer.op, None, count, label, thread)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function; the calling thread becomes the client."""
        self._client_stack = self._stack()
        self._client_thread = threading.get_ident()
        modules = [m for k, m in list(sys.modules.items()) if k == "vmlab" or k.startswith("vmlab.")]
        for name, (module, attr, work) in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(name, original, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_csv(self, path) -> None:
        origin = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,error,work,label,thread\n")
            for sid, name, start, end, parent, op, err, work, label, thread in sorted(self.spans):
                fh.write(
                    f"{sid},{name},{start - origin},{end - origin},{parent},{op},"
                    f"{err or ''},{work},{label or ''},{thread}\n"
                )


def _covered(start: int, end: int, intervals: list) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_metrics(spans: list) -> dict:
    """Per-layer calls, self time and work counts, plus derived ratios."""
    names = {s[0]: s[1] for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    work = defaultdict(int)
    fallbacks = 0
    defect_ns = defaultdict(int)
    run_ns = defaultdict(int)
    for sid, name, start, end, parent, op, err, count, _label, thread in spans:
        layer = GROUPS.get(name, name)
        calls[layer] += 1
        self_ns[layer] += end - start - _covered(start, end, children.get(sid, ()))
        work[layer] += count
        if err == CapacityExceeded.__name__ and names.get(parent) == "l1m_norm.norm_best":
            fallbacks += 1
        if name == "daugavet.daugavet_defect" and thread == "pool":
            defect_ns[op] += end - start
        elif name == "harness.run":
            run_ns[op] += end - start

    def per(layer):
        return self_ns[layer] / work[layer] if work[layer] else 0.0

    # defect time on pool threads over run time of the ops that used the pool;
    # it exceeds 1 only if pool threads overlap one another
    pool_run = sum(run_ns[op] for op in defect_ns)
    metrics = {
        "l1m_norm.norm_exact.patterns": (work["l1m_norm.norm_exact"], "count"),
        "l1m_norm.norm_exact.ns_per_pattern": (per("l1m_norm.norm_exact"), "ns"),
        "opt_engine.hill_climb.evals": (work["opt_engine.hill_climb"], "count"),
        "opt_engine.hill_climb.ns_per_eval": (per("opt_engine.hill_climb"), "ns"),
        "l1m_norm.norm_closed_form.corners": (work["l1m_norm.norm_closed_form"], "count"),
        "l1m_norm.norm_best.fallbacks": (fallbacks, "count"),
        "opt_engine.solve_lp.tableau_cells": (work["opt_engine.solve_lp"], "count"),
        "daugavet.opnorm_from_l1.bytes": (work["daugavet.opnorm_from_l1"], "B"),
        "daugavet.operator_alloc.bytes": (work["daugavet.operator_alloc"], "B"),
        "harness.pool_overlap": (sum(defect_ns.values()) / pool_run if pool_run else 0.0, "ratio"),
        "rng.normals.draws": (work["rng.normals"], "count"),
        "harness.dumps_report.bytes": (work["harness.dumps_report"], "B"),
    }
    for layer in CALLS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
    return metrics


CALLS = [
    "l1m_norm.norm_exact",
    "opt_engine.hill_climb",
    "l1m_norm.norm_closed_form",
    "l1m_norm.norm_best",
    "l1m_norm.norm_heuristic",
    "opt_engine.solve_lp",
    "approx_nets.weakstar_gap",
    "daugavet.opnorm_from_l1",
    "rng.normals",
]
SELF_TIMES = [
    "l1m_norm.norm_exact",
    "opt_engine.hill_climb",
    "l1m_norm.norm_closed_form",
    "l1m_norm.norm_heuristic",
    "l1m_norm.deviation",
    "l1m_norm.koethe_dual_norm_info",
    "opt_engine.solve_lp",
    "approx_nets.run_net",
    "approx_nets.weakstar_gap",
    "approx_nets.net_build",
    "daugavet.opnorm_from_l1",
    "daugavet.operator_alloc",
    "daugavet.center_defect",
    "daugavet.series_approximation_gap",
    "daugavet.density_norm_identity",
    "rng.normals",
    "harness.build_scenario",
    "harness.run",
    "harness.dumps_report",
]
