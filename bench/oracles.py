"""Independent numpy-only checks of every op output.

Nothing here calls vmlab.  Measures of kind ``random`` are rebuilt with a
separate SplitMix64 written from the generator's documented constants, norms
come from full sign enumeration done as one matrix, and operator norms from
the weighted column sums.  Each check returns a list of failure messages.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
ENGINE_EXACT = ("exact", "closed_form")


def splitmix_normals(seed: int, k: int) -> np.ndarray:
    """Box-Muller normals (cosine branch) from SplitMix64, as the README specifies."""
    state = int(seed) & _MASK

    def next_u64():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    out = np.empty(k)
    for i in range(k):
        u1 = ((next_u64() >> 11) + 1) * 2.0**-53
        u2 = (next_u64() >> 11) * 2.0**-53
        out[i] = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return out


def _value_space(scenario: dict):
    """(kind, scale vector) of the scenario's value space."""
    n = scenario["space"]["n"]
    vs = scenario["value_space"]
    if vs["kind"] == "l1-of-mu":
        return "L1", np.full(n, 1.0 / n)
    return vs["kind"], np.broadcast_to(np.asarray(vs.get("scale", 1.0), float), (vs["d"],))


def _atoms(scenario: dict, spec: dict) -> np.ndarray:
    n = scenario["space"]["n"]
    d = len(_value_space(scenario)[1])
    if spec["kind"] == "indicator":
        return np.eye(n)
    if spec["kind"] == "random":
        return splitmix_normals(spec["seed"], n * d).reshape(n, d)
    if spec["kind"] == "rank_one":
        return np.full(n, 1.0 / n)[:, None] * np.asarray(spec["g"], float)[None, :]
    raise ValueError(f"no oracle for measure kind {spec['kind']!r}")


def row_norms(kind: str, scale, V) -> np.ndarray:
    S = np.abs(np.asarray(V) * scale)
    if kind == "L1":
        return S.sum(axis=-1)
    if kind == "L2":
        return np.sqrt((S * S).sum(axis=-1))
    return S.max(axis=-1)


def brute_norm(kind: str, scale, atoms, coeffs) -> float:
    """max over all 2^(k-1) sign patterns (first pinned) of ||sum eps_i |f_i| m_i||."""
    support = np.flatnonzero(coeffs)
    if support.size == 0:
        return 0.0
    a = np.abs(coeffs[support])[:, None] * atoms[support]
    k = support.size
    codes = np.arange(1 << (k - 1), dtype=np.int64)
    signs = 1.0 - 2.0 * ((codes[:, None] >> np.arange(k - 1)) & 1)
    return float(row_norms(kind, scale, a[0] + signs @ a[1:]).max())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _error(report: dict) -> list:
    if "error" in report:
        return [f"error section: {report['error']}"]
    return []


def check_norm_table(scenario: dict, report: dict) -> list:
    bad = _error(report)
    if bad:
        return bad
    kind, scale = _value_space(scenario)
    atoms = _atoms(scenario, scenario["measure"])
    rows = report["results"]["rows"]
    if len(rows) != len(scenario["functions"]):
        return [f"{len(rows)} rows for {len(scenario['functions'])} functions"]
    for idx, value, method, heuristic in rows:
        coeffs = np.asarray(scenario["functions"][idx], float)
        if method in ENGINE_EXACT:
            expect = brute_norm(kind, scale, atoms, coeffs)
            if not _close(value, expect, 1e-9):
                bad.append(f"f{idx}: {method} value {value!r} != enumeration {expect!r}")
            if heuristic > value + 1e-12:
                bad.append(f"f{idx}: heuristic {heuristic!r} above exact {value!r}")
        else:
            a = np.abs(coeffs)[:, None] * atoms
            all_plus = float(row_norms(kind, scale, a.sum(axis=0)))
            triangle = float(row_norms(kind, scale, a).sum())
            if not all_plus <= value + 1e-12 or not value <= triangle * (1 + 1e-12):
                bad.append(f"f{idx}: {method} value {value!r} outside [{all_plus!r}, {triangle!r}]")
    return bad


def _net_length(scenario: dict) -> int:
    exp = scenario["experiment"]
    if exp["kind"] == "basis" or exp.get("family") == "coordinate":
        return len(_value_space(scenario)[1])
    return exp["levels"] + 1


def _reaches_target(scenario: dict) -> bool:
    """Indicator nets whose last level is the target measure itself (A04)."""
    if scenario["measure"]["kind"] != "indicator":
        return False
    exp = scenario["experiment"]
    if "levels" in exp:
        return 1 << exp["levels"] == scenario["space"]["n"]
    return True


def check_net(scenario: dict, report: dict) -> list:
    bad = _error(report)
    if bad:
        return bad
    rows = report["results"]["rows"]
    if len(rows) != _net_length(scenario):
        return [f"{len(rows)} net levels, expected {_net_length(scenario)}"]
    for level, norm_gap, deviation, _pointwise, _weakstar in rows:
        if norm_gap > deviation + 1e-10:
            bad.append(f"level {level}: norm_gap {norm_gap!r} > deviation {deviation!r}")
    if _reaches_target(scenario):
        last = rows[-1]
        if last[1] != 0.0 or last[3] != 0.0:
            bad.append(f"last level gaps norm {last[1]!r}, pointwise {last[3]!r}, expected 0")
    return bad


def check_operators(scenario: dict, report: dict) -> list:
    bad = _error(report)
    if bad:
        return bad
    exp = scenario["experiment"]
    rows = report["results"]["rows"]
    if exp["kind"] == "daugavet":
        if [row[0] for row in rows] != exp["sweep"]:
            return [f"sweep rows {[row[0] for row in rows]} != {exp['sweep']}"]
        for n, norm_id, norm_t, _norm_sum, defect in rows:
            expect = 2.0 / n if exp["sign"] == -1 else 0.0
            if not (_close(norm_id, 1.0, 1e-12) and _close(norm_t, 1.0, 1e-12)):
                bad.append(f"n={n}: ||Id|| = {norm_id!r}, ||T|| = {norm_t!r}, expected 1")
            if abs(defect - expect) > 1e-12:
                bad.append(f"n={n}: defect {defect!r}, expected {expect!r}")
    elif exp["kind"] == "series_gap":
        n = scenario["space"]["n"]
        mu = np.full(n, 1.0 / n)
        residual = _atoms(scenario, scenario["measure"]).T - exp["sign"] * np.outer(np.ones(n), mu)
        expect = float(np.max((mu @ np.abs(residual)) / mu))
        if not _close(rows[0][0], expect, 1e-10):
            bad.append(f"gap_norm {rows[0][0]!r}, column sums give {expect!r}")
    elif exp["kind"] == "identity":
        if rows[0][5] is not True:
            bad.append(f"identity gap {rows[0][4]!r} not within tolerance")
    return bad


def check_koethe(data: dict, value: float, maximizer) -> list:
    """The maximizer must lie in the unit ball and attain the reported value."""
    if maximizer is None:
        return ["no maximizer"]
    f = np.asarray(maximizer, float)
    ball = brute_norm(data["kind"], data["scale"], data["atoms"], f)
    attained = abs(float(np.dot(data["g"] * data["weights"], f)))
    bad = []
    if ball > 1.0 + 1e-9:
        bad.append(f"maximizer norm {ball!r} > 1")
    if not _close(value, attained, 1e-9):
        bad.append(f"value {value!r} != |c.f*| = {attained!r}")
    return bad


CHECKS = {
    "norm-table": check_norm_table,
    "nets": check_net,
    "operators": check_operators,
}
