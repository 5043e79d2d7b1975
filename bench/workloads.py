"""Seeded generators for the four benchmark workloads.

A workload is a list of rounds.  Each round holds one op per template of the
workload, always in the template order, so any whole number of rounds has the
same op mix and the same sizes whatever the seed.  The seed draws only the
contents: atoms, coefficients, scales, signs and experiment seeds.  Sizes
(n, d, supports) and measure kinds are fixed per template because op cost
grows exponentially with support size in ``norm_exact`` and with d in the
L1 closed form; drawing them at random would make the op mix of a run, and
so its throughput, depend on the seed and on how many rounds fit.

Harness ops carry a scenario dict, exactly what ``vmlab report`` would load
from a file.  Koethe ops carry the arrays of one ``koethe_dual_norm_info``
call plus the vmlab objects built from them, because no harness experiment
reaches that function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from vmlab.measure_core import MeasureSpace, SimpleFunction
from vmlab.normed_space import NormSpec
from vmlab.vector_measure import VectorMeasure

ROUNDS = 24  # distinct rounds generated; the timed loop cycles through them


@dataclass(frozen=True, eq=False)
class Op:
    template: str
    scenario: Optional[dict] = None  # harness ops
    koethe: Optional[dict] = None    # koethe ops: kind, weights, scale, atoms, g, seed
    measure: Optional[VectorMeasure] = None
    g: Optional[SimpleFunction] = None


def _seed(rng) -> int:
    return int(rng.integers(1 << 32))


def _normals(rng, size) -> list:
    return rng.normal(size=size).tolist()


def _scenario(n, value_space, measure, functions, experiment) -> dict:
    return {
        "schema_version": 1,
        "space": {"n": n, "weights": "uniform"},
        "value_space": value_space,
        "measure": measure,
        "functions": functions,
        "experiment": experiment,
    }


def _weighted(rng, kind, d) -> dict:
    return {"kind": kind, "d": d, "scale": rng.uniform(0.5, 2.0, size=d).tolist()}


# --------------------------------------------------------------------------
# norm-table: (value kind, d, supports of the listed functions); n is the
# largest support plus two

NORM_TEMPLATES = [
    ("L2", 4, [10]),
    ("L1", 8, [14, 9]),
    ("LINF", 6, [16, 12, 10]),
    ("L2", 8, [12]),
    ("L2", 6, [12, 10]),
    ("L2", 6, [24]),
    ("L2", 6, [13, 11]),  # the median op
    ("L2", 6, [13, 11]),
    ("L2", 6, [13, 11]),
    ("L2", 6, [15]),
    ("L2", 5, [15, 10, 12]),
    ("L2", 6, [48, 32]),
    ("L2", 7, [16]),
    ("L2", 6, [96]),  # the tail
    ("L2", 6, [96]),
]


def _norm_op(rng, kind, d, supports) -> Op:
    n = max(supports) + 2
    functions = []
    for k in supports:
        coeffs = np.zeros(n)
        coeffs[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
        functions.append(coeffs.tolist())
    scenario = _scenario(
        n,
        _weighted(rng, kind, d),
        {"kind": "random", "seed": _seed(rng)},
        functions,
        {"kind": "norm", "restarts": 8, "seed": _seed(rng)},
    )
    engine = "hill" if kind == "L2" and max(supports) > 16 else ("gray" if kind == "L2" else "closed")
    return Op(f"norm/{kind}/{engine}/k{'-'.join(map(str, supports))}", scenario=scenario)


# --------------------------------------------------------------------------
# nets: (experiment, measure, n, levels); indicator nets live on l1-of-mu,
# L2 nets have d = 6 because a basis net has d levels

NET_TEMPLATES = [
    ("basis", "indicator", 16, None),
    ("coordinate", "indicator", 16, None),
    ("martingale", "L2", 8, 2),
    ("martingale", "L2", 8, 3),
    ("basis", "L2", 8, None),
    ("coordinate", "L2", 8, None),
    ("coordinate", "indicator", 32, None),
    ("basis", "indicator", 32, None),
    ("basis", "L2", 10, None),  # the median op
    ("basis", "L2", 10, None),
    ("basis", "L2", 10, None),
    ("expectation", "indicator", 32, 5),
    ("martingale", "L2", 12, 2),
    ("coordinate", "indicator", 64, None),
    ("martingale", "indicator", 32, 5),
    ("coordinate", "L2", 12, None),
    ("martingale", "indicator", 64, 3),
    ("basis", "indicator", 128, None),  # the tail
    ("basis", "indicator", 128, None),
]


def _net_op(rng, experiment, measure, n, levels) -> Op:
    if measure == "indicator":
        value_space = {"kind": "l1-of-mu"}
        measure_spec = {"kind": "indicator"}
    else:
        value_space = _weighted(rng, "L2", 6)
        measure_spec = {"kind": "random", "seed": _seed(rng)}
    exp = {"seed": _seed(rng)}
    if experiment == "martingale":
        exp.update(kind="martingale", levels=levels)
    elif experiment == "basis":
        exp.update(kind="basis")
    else:
        exp.update(kind="rn_net", family=experiment)
        if levels is not None:
            exp["levels"] = levels
    scenario = _scenario(n, value_space, measure_spec, [_normals(rng, n)], exp)
    return Op(f"net/{experiment}/{measure}/n{n}/levels{levels}", scenario=scenario)


# --------------------------------------------------------------------------
# operators: (kind, size) for Daugavet sweeps, series gaps on the indicator
# or a rank-one measure, and density identities kept inside the 2^20
# dual-corner limit, with d = 6 on L1/LINF.  Points of n >= 2048 run alone in their sweep,
# on the client thread, so peak memory does not depend on how the pool
# threads' allocations happen to interleave.

OPERATOR_TEMPLATES = [
    ("identity/l1-of-mu", 8),
    ("identity/l1-of-mu", 12),
    ("identity/L1", 12),
    ("identity/LINF", 10),
    ("identity/L1", 16),
    ("identity/l1-of-mu", 16),
    ("daugavet", [512, 1024]),
    ("daugavet", [1024, 512, 1024]),
    ("series_gap/indicator", 128),  # the median op
    ("series_gap/rank_one", 128),
    ("series_gap/indicator", 128),
    ("daugavet", [2048]),
    ("daugavet", [2048]),
    ("series_gap/indicator", 256),
    ("series_gap/rank_one", 256),
    ("daugavet", [4096]),
    ("daugavet", [4096]),
    ("series_gap/indicator", 512),  # the tail
    ("series_gap/rank_one", 512),
]


def _operator_op(rng, kind, size) -> Op:
    sign = int(rng.choice([-1, 1]))
    if kind == "daugavet":
        sweep = [int(v) for v in rng.permutation(size)]
        scenario = _scenario(
            4,
            {"kind": "l1-of-mu"},
            {"kind": "indicator"},
            [],
            {"kind": "daugavet", "sweep": sweep, "sign": sign},
        )
        return Op(f"daugavet/n{'-'.join(map(str, size))}", scenario=scenario)
    n = size
    if kind.startswith("series_gap"):
        measure = (
            {"kind": "indicator"}
            if kind == "series_gap/indicator"
            else {"kind": "rank_one", "g": _normals(rng, n)}
        )
        exp = {"kind": "series_gap", "sign": sign, "samples": 64, "seed": _seed(rng)}
        scenario = _scenario(n, {"kind": "l1-of-mu"}, measure, [], exp)
        return Op(f"{kind}/n{n}", scenario=scenario)
    lam = float(rng.uniform(-2.0, 2.0))
    if kind == "identity/l1-of-mu":
        value_space = {"kind": "l1-of-mu"}
        measure = {"kind": "indicator"}
        other = {"kind": "rank_one", "g": _normals(rng, n)}
    else:
        value_space = _weighted(rng, kind.split("/")[1], 6)
        measure = {"kind": "random", "seed": _seed(rng)}
        other = {"kind": "random", "seed": _seed(rng)}
    exp = {"kind": "identity", "lambda": lam, "other": other}
    return Op(f"{kind}/n{n}", scenario=_scenario(n, value_space, measure, [], exp))


# --------------------------------------------------------------------------
# koethe: (value kind, n, d); L1/LINF go to the dense simplex, L2 to the
# projected supergradient

KOETHE_TEMPLATES = (
    [("LINF", 6, 4), ("LINF", 9, 6), ("L1", 6, 4), ("L1", 8, 4)] * 2
    # LP pivot counts vary with the contents, so the median op sits inside
    # ten copies of one LP size
    + [("LINF", 12, 8)] * 10
    + [("L1", 8, 6), ("L1", 10, 8), ("L1", 12, 10)]
    + [("L2", 4, 4), ("L2", 5, 4), ("L2", 6, 5), ("L2", 6, 5)]  # the tail
)


def _koethe_op(rng, kind, n, d) -> Op:
    data = {
        "kind": kind,
        "weights": rng.uniform(0.2, 1.5, size=n),
        "scale": rng.uniform(0.5, 2.0, size=d),
        "atoms": rng.normal(size=(n, d)),
        "g": rng.normal(size=n),
        "seed": _seed(rng),
    }
    space = MeasureSpace(data["weights"])
    measure = VectorMeasure(space, NormSpec(kind, d, data["scale"]), data["atoms"])
    return Op(
        f"koethe/{kind}/n{n}/d{d}",
        koethe=data,
        measure=measure,
        g=SimpleFunction(space, data["g"]),
    )


WORKLOADS = {
    "norm-table": (NORM_TEMPLATES, _norm_op),
    "nets": (NET_TEMPLATES, _net_op),
    "operators": (OPERATOR_TEMPLATES, _operator_op),
    "koethe": (KOETHE_TEMPLATES, _koethe_op),
}


def generate(workload: str, seed: int) -> list[list[Op]]:
    """ROUNDS rounds of ops for the workload; the same seed gives the same ops."""
    templates, make = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return [[make(rng, *t) for t in templates] for _ in range(ROUNDS)]
