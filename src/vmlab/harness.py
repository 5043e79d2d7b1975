"""Scenario ingestion, experiment orchestration, and report emission.

A scenario is a JSON object with five sections (unknown keys are rejected
everywhere; ``schema_version`` is currently 1):

    space        {"n": int, "weights": "uniform" | [positive floats]}
    value_space  {"kind": "l1-of-mu"}                    discretized L1(mu)
                 {"kind": "L1"|"L2"|"LINF", "d": int, "scale": num | [..]}
    measure      {"kind": "indicator"}                   atom i |-> e_i (d = n)
                 {"kind": "rank_one", "g": [..]}         atom i |-> mu_i * g
                 {"kind": "random", "seed": int}         seeded Gaussian atoms
                 {"kind": "matrix", "rows": [[..], ..]}  explicit n x d atoms
                 {"kind": "composed", "base": {..}, "k": int}   coordinate
                                                         truncation of base
    functions    [[..], ..] coefficient vectors of length n
    experiment   {"kind": .., ..parameters}, see EXPERIMENT_PARAMS

Experiment kinds and their specific parameters:

    norm         restarts      per-function norm table
    martingale   levels        dyadic-chain martingale net on functions[0]
    basis        -             coordinate truncation net on functions[0]
    rn_net       family ("coordinate" | "expectation"), levels
    daugavet     sweep [n..], sign (+-1)   rank-one defect per uniform size
    identity     lambda, other <measure>   combined-norm density identity
    series_gap   sign, samples             distance of G to a partial sum

All kinds also accept ``seed``, ``tolerance``, and ``exact_cutoff``.  Reports
are deterministic for a fixed scenario and seed (the wall-time metadata field
aside); floats are serialized with 17 significant digits so JSON round-trips
exactly.  CSV output has one row per net level or sweep point with the
documented per-experiment header.  Daugavet sweep points use the O(n)
rank-one formula and run in sweep order on the calling thread; series_gap
on an indicator or rank_one measure runs on factored operators in
O(samples * n), and on the other measure kinds on dense n x n matrices.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .approx_nets import (
    associated_measure,
    basis_net,
    basis_truncated_measure,
    coordinate_family,
    expectation_family,
    martingale_net,
    rn_operator,
    run_net,
)
from .daugavet import (
    FactoredOperator,
    density_norm_identity,
    integration_operator,
    rank_one_defect,
    rank_one_operator,
    series_approximation_gap,
)
from .errors import ParseError, ValidationError, VmlabError
from .l1m_norm import DEFAULT_EXACT_CUTOFF, HEURISTIC, norm_best, norm_heuristic
from .measure_core import MeasurableSet, MeasureSpace, SimpleFunction, dyadic_chain
from .normed_space import NormSpec, same_norm
from .rng import SplitMix64
from .vector_measure import VectorMeasure

SCHEMA_VERSION = 1

EXPERIMENT_PARAMS = {
    "norm": {"restarts"},
    "martingale": {"levels"},
    "basis": set(),
    "rn_net": {"family", "levels"},
    "daugavet": {"sweep", "sign"},
    "identity": {"lambda", "other"},
    "series_gap": {"sign", "samples"},
}
_COMMON_PARAMS = {"kind", "seed", "tolerance", "exact_cutoff"}


@dataclass(frozen=True, eq=False)
class Scenario:
    raw: dict
    space: MeasureSpace
    X: NormSpec
    measure: VectorMeasure
    functions: list
    experiment: dict


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ValidationError(f"missing key(s) {sorted(missing)} in {where}")


def _check_number(value, what: str, low=None, real: bool = False):
    """Reject bools, non-numbers (non-integers unless ``real``) and values below ``low``."""
    number = not isinstance(value, bool) and isinstance(value, (int, float) if real else int)
    if not number or (low is not None and not value >= low):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{what} must be {'a real number' if real else 'an integer'}{bound}")


def _check_sign(value, what: str):
    if isinstance(value, bool) or value not in (-1, 1):
        raise ValidationError(f"{what} must be -1 or 1")


def _check_common(exp: dict):
    """The parameters every experiment kind accepts, also after ``run`` overrides them."""
    _check_number(exp["seed"], "experiment seed")
    _check_number(exp["exact_cutoff"], "experiment exact_cutoff", 0)
    _check_number(exp["tolerance"], "experiment tolerance", 0, real=True)


def _build_space(section) -> MeasureSpace:
    _require_keys(section, {"n", "weights"}, {"n", "weights"}, "space")
    n = section["n"]
    _check_number(n, "space.n", 1)
    weights = section["weights"]
    if weights == "uniform":
        return MeasureSpace.uniform(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValidationError("weights must list one value per atom")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be positive")
    return MeasureSpace(weights)


def _build_value_space(section, space: MeasureSpace) -> NormSpec:
    if isinstance(section, dict) and section.get("kind") == "l1-of-mu":
        _require_keys(section, {"kind"}, {"kind"}, "value_space")
        return NormSpec.l1_of_mu(space)
    _require_keys(section, {"kind", "d", "scale"}, {"kind", "d"}, "value_space")
    kind = section["kind"]
    if kind not in ("L1", "L2", "LINF"):
        raise ValidationError("value_space.kind must be L1, L2, LINF, or l1-of-mu")
    d = section["d"]
    _check_number(d, "value_space.d", 1)
    scale = section.get("scale", 1.0)
    try:
        return NormSpec(kind, d, scale)
    except ValueError as exc:
        raise ValidationError(f"invalid value_space scale: {exc}") from exc


def _build_measure(section, space: MeasureSpace, X: NormSpec, where: str = "measure") -> VectorMeasure:
    _require_keys(section, {"kind", "g", "seed", "rows", "base", "k"}, {"kind"}, where)
    kind = section.get("kind")
    if kind == "indicator":
        _require_keys(section, {"kind"}, {"kind"}, where)
        if X.dim != space.n:
            raise ValidationError("indicator measure needs value_space dimension equal to n")
        return VectorMeasure(space, X, np.eye(space.n))
    if kind == "rank_one":
        _require_keys(section, {"kind", "g"}, {"kind", "g"}, where)
        g = np.asarray(section["g"], dtype=float)
        if g.shape != (X.dim,):
            raise ValidationError("rank_one density g must have value_space dimension")
        return VectorMeasure(space, X, space.weights[:, None] * g[None, :])
    if kind == "random":
        _require_keys(section, {"kind", "seed"}, {"kind", "seed"}, where)
        _check_number(section["seed"], f"{where}.seed")
        gen = SplitMix64(section["seed"])
        atoms = gen.normals(space.n * X.dim).reshape(space.n, X.dim)
        return VectorMeasure(space, X, atoms)
    if kind == "matrix":
        _require_keys(section, {"kind", "rows"}, {"kind", "rows"}, where)
        atoms = np.asarray(section["rows"], dtype=float)
        if atoms.shape != (space.n, X.dim):
            raise ValidationError("matrix measure needs n rows of value_space dimension")
        return VectorMeasure(space, X, atoms)
    if kind == "composed":
        _require_keys(section, {"kind", "base", "k"}, {"kind", "base", "k"}, where)
        base = _build_measure(section["base"], space, X, where=f"{where}.base")
        k = section["k"]
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= X.dim:
            raise ValidationError("composed truncation rank k must be in 1..d")
        return basis_truncated_measure(base, k)
    raise ValidationError(f"unknown measure kind {kind!r}")


def _check_levels(exp: dict, space: MeasureSpace, what: str):
    levels = exp.get("levels")
    _check_number(levels, f"{what} levels", 0)
    if space.n % (1 << levels) != 0:
        raise ValidationError(f"n={space.n} is not divisible by 2**{levels}")


def _build_experiment(section, scenario_ctx) -> dict:
    if not isinstance(section, dict) or "kind" not in section:
        raise ValidationError("experiment must be an object with a kind")
    kind = section["kind"]
    if kind not in EXPERIMENT_PARAMS:
        raise ValidationError(f"unknown experiment kind {kind!r}")
    _require_keys(section, _COMMON_PARAMS | EXPERIMENT_PARAMS[kind], {"kind"}, "experiment")
    exp = dict(section)
    exp.setdefault("seed", 0)
    exp.setdefault("tolerance", 1e-10)
    exp.setdefault("exact_cutoff", DEFAULT_EXACT_CUTOFF)
    _check_common(exp)
    space, X, functions = scenario_ctx
    needs_function = kind in ("martingale", "basis", "rn_net")
    if needs_function and not functions:
        raise ValidationError(f"experiment {kind} needs at least one function")
    if kind == "norm":
        exp.setdefault("restarts", 8)
        _check_number(exp["restarts"], "norm restarts", 1)
    elif kind == "martingale":
        _check_levels(exp, space, "martingale experiment")
    elif kind == "rn_net":
        exp.setdefault("family", "coordinate")
        if exp["family"] not in ("coordinate", "expectation"):
            raise ValidationError("rn_net family must be coordinate or expectation")
        if exp["family"] == "expectation":
            _check_levels(exp, space, "rn_net expectation family")
            if X.dim != space.n:
                raise ValidationError("expectation family needs value_space dimension equal to n")
    elif kind == "daugavet":
        exp.setdefault("sweep", [space.n])
        exp.setdefault("sign", -1)
        sweep = exp["sweep"]
        if not isinstance(sweep, list) or not sweep or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in sweep
        ):
            raise ValidationError("daugavet sweep must be a nonempty list of positive integers")
        _check_sign(exp["sign"], "daugavet sign")
    elif kind == "identity":
        exp.setdefault("lambda", 1.0)
        exp.setdefault("other", {"kind": "indicator"})
        _check_number(exp["lambda"], "identity lambda", real=True)
        if not X.is_polyhedral:
            raise ValidationError("identity experiment needs a polyhedral value_space")
    elif kind == "series_gap":
        exp.setdefault("sign", -1)
        exp.setdefault("samples", 64)
        _check_number(exp["samples"], "series_gap samples", 0)
        _check_sign(exp["sign"], "series_gap sign")
        if not same_norm(X, NormSpec.l1_of_mu(space)):
            raise ValidationError("series_gap needs value_space l1-of-mu")
    return exp


def build_scenario(data: dict) -> Scenario:
    """Validate a scenario object and construct its in-memory pieces."""
    _require_keys(
        data,
        {"schema_version", "space", "value_space", "measure", "functions", "experiment"},
        {"schema_version", "space", "value_space", "measure", "functions", "experiment"},
        "scenario",
    )
    if data["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {data['schema_version']!r}")
    space = _build_space(data["space"])
    X = _build_value_space(data["value_space"], space)
    measure = _build_measure(data["measure"], space, X)
    functions_raw = data["functions"]
    if not isinstance(functions_raw, list):
        raise ValidationError("functions must be a list of coefficient vectors")
    functions = []
    for idx, coeffs in enumerate(functions_raw):
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (space.n,):
            raise ValidationError(f"functions[{idx}] must have one coefficient per atom")
        functions.append(SimpleFunction(space, arr))
    experiment = _build_experiment(data["experiment"], (space, X, functions))
    return Scenario(data, space, X, measure, functions, experiment)


def load_scenario(path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"scenario {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return build_scenario(data)


_NET_COLUMNS = ["level", "norm_gap", "deviation", "pointwise_gap", "weakstar_gap"]


def _default_tests(scenario: Scenario, finest=None):
    f = scenario.functions[0]
    tests = [f]
    if finest is not None:
        for ids in finest.blocks():
            tests.append(
                SimpleFunction.indicator(MeasurableSet.from_indices(scenario.space, ids))
            )
    return tests


def _run_norm(sc: Scenario, exp: dict) -> dict:
    rows = []
    for idx, f in enumerate(sc.functions):
        kw = dict(restarts=exp["restarts"], seed=exp["seed"])
        best = norm_best(sc.measure, f, exact_cutoff=exp["exact_cutoff"], **kw)
        heur = best if best.method == HEURISTIC else norm_heuristic(sc.measure, f, **kw)
        rows.append([idx, best.value, best.method, heur.value])
    return {"columns": ["f_index", "value", "method", "heuristic"], "rows": rows}


def _net_table(sc: Scenario, exp: dict, net: list, tests: list) -> dict:
    """One row per level of the net run on the first function."""
    report = run_net(
        sc.measure,
        net,
        sc.functions[0],
        tests=tests,
        exact_cutoff=exp["exact_cutoff"],
        seed=exp["seed"],
    )
    rows = [
        [lv.index, lv.norm_gap, lv.deviation, lv.pointwise_gap, lv.weakstar_gap]
        for lv in report.levels
    ]
    return {"columns": _NET_COLUMNS, "rows": rows}


def _run_martingale(sc: Scenario, exp: dict) -> dict:
    chain = dyadic_chain(exp["levels"], sc.space)
    net = martingale_net(sc.measure, chain)
    return _net_table(sc, exp, net, _default_tests(sc, finest=chain[-1]))


def _run_basis(sc: Scenario, exp: dict) -> dict:
    return _net_table(sc, exp, basis_net(sc.measure), _default_tests(sc))


def _run_rn_net(sc: Scenario, exp: dict) -> dict:
    if exp["family"] == "coordinate":
        families = [coordinate_family(sc.measure, k) for k in range(1, sc.X.dim + 1)]
        tests = _default_tests(sc)
    else:
        chain = dyadic_chain(exp["levels"], sc.space)
        families = [expectation_family(sc.measure, p) for p in chain]
        tests = _default_tests(sc, finest=chain[-1])
    net = [associated_measure(rn_operator(sc.measure, xs, vs), sc.space) for xs, vs in families]
    return _net_table(sc, exp, net, tests)


def _daugavet_point(n: int, sign: float) -> list:
    rep = rank_one_defect(MeasureSpace.uniform(n), sign * np.ones(n), np.ones(n))
    return [n, rep.norm_G, rep.norm_T, rep.norm_sum, rep.defect]


def _run_daugavet(sc: Scenario, exp: dict) -> dict:
    rows = [_daugavet_point(n, float(exp["sign"])) for n in exp["sweep"]]
    return {"columns": ["n", "norm_id", "norm_T", "norm_sum", "defect"], "rows": rows}


def _run_identity(sc: Scenario, exp: dict) -> dict:
    other = _build_measure(exp["other"], sc.space, sc.X, where="experiment.other")
    rep = density_norm_identity(sc.measure, other, float(exp["lambda"]))
    row = [
        float(exp["lambda"]),
        rep.operator_side,
        rep.density_side,
        rep.atom_side,
        rep.gap,
        bool(rep.gap <= exp["tolerance"]),
    ]
    return {
        "columns": [
            "lambda",
            "operator_side",
            "density_side",
            "atom_side",
            "gap",
            "within_tolerance",
        ],
        "rows": [row],
    }


def _run_series_gap(sc: Scenario, exp: dict) -> dict:
    """G is the measure's integration map; the part is sign * 1 mu^T."""
    space, measure = sc.space, sc.raw["measure"]
    ones = np.ones(space.n)
    sign = float(exp["sign"])
    if measure["kind"] == "indicator":
        G = FactoredOperator.identity(space)
    elif measure["kind"] == "rank_one":
        G = FactoredOperator.rank_one(space, measure["g"])
    else:
        G = integration_operator(sc.measure)
    if isinstance(G, FactoredOperator):
        part = FactoredOperator.rank_one(space, sign * ones)
    else:
        part = rank_one_operator(space, sign * ones, ones)
    rep = series_approximation_gap(G, [part], samples=exp["samples"], seed=exp["seed"])
    return {"columns": ["gap_norm", "c_estimate"], "rows": [[rep.gap_norm, rep.c_estimate]]}


_RUNNERS = {
    "norm": _run_norm,
    "martingale": _run_martingale,
    "basis": _run_basis,
    "rn_net": _run_rn_net,
    "daugavet": _run_daugavet,
    "identity": _run_identity,
    "series_gap": _run_series_gap,
}


def run(scenario: Scenario, seed=None, exact_cutoff=None, tolerance=None) -> dict:
    """Execute the scenario's experiment and assemble the report.

    The overrides pass the scenario's checks (``ValidationError``).  Package
    errors raised while running are recorded in the report's error section
    instead of propagating, so partial results survive.
    """
    exp = dict(scenario.experiment)
    overrides = {"seed": seed, "exact_cutoff": exact_cutoff, "tolerance": tolerance}
    exp.update((key, value) for key, value in overrides.items() if value is not None)
    _check_common(exp)
    started = time.perf_counter()
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.raw,
        "results": {"experiment": exp["kind"]},
        "metadata": {
            "package": "vmlab",
            "version": __version__,
            "seed": exp["seed"],
        },
    }
    try:
        report["results"].update(_RUNNERS[exp["kind"]](scenario, exp))
    except VmlabError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["metadata"]["wall_time_s"] = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# serialization

def _canon(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("cannot serialize a non-finite number")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _canon(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_canon(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats, newline-terminated."""
    return _canon(report, 0) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def dumps_csv(report: dict) -> str:
    results = report.get("results", {})
    columns = results.get("columns", [])
    rows = results.get("rows", [])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str, path=None) -> None:
    """Write the report as canonical JSON or as the per-experiment CSV table."""
    if fmt == "json":
        text = dumps_report(report)
    elif fmt == "csv":
        text = dumps_csv(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# builtin scenarios

PRESETS = {
    "canonical-l1": {
        "schema_version": 1,
        "space": {"n": 4, "weights": "uniform"},
        "value_space": {"kind": "l1-of-mu"},
        "measure": {"kind": "indicator"},
        "functions": [[1.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.0, 3.0]],
        "experiment": {"kind": "martingale", "levels": 2},
    },
    "rank-one": {
        "schema_version": 1,
        "space": {"n": 4, "weights": "uniform"},
        "value_space": {"kind": "l1-of-mu"},
        "measure": {"kind": "rank_one", "g": [1.0, 1.0, 1.0, 1.0]},
        "functions": [[1.0, -2.0, 0.0, 3.0]],
        "experiment": {"kind": "identity", "lambda": 1.0, "other": {"kind": "indicator"}},
    },
    "random-measure": {
        "schema_version": 1,
        "space": {"n": 6, "weights": "uniform"},
        "value_space": {"kind": "LINF", "d": 3, "scale": 1.0},
        "measure": {"kind": "random", "seed": 7},
        "functions": [[1.0, -2.0, 0.0, 3.0, 0.5, -1.0], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]],
        "experiment": {"kind": "norm", "restarts": 8},
    },
    "schauder": {
        "schema_version": 1,
        "space": {"n": 4, "weights": "uniform"},
        "value_space": {"kind": "LINF", "d": 4, "scale": 1.0},
        "measure": {"kind": "random", "seed": 11},
        "functions": [[3.0, -4.0, 1.0, 0.0]],
        "experiment": {"kind": "basis"},
    },
    "daugavet-sweep": {
        "schema_version": 1,
        "space": {"n": 4, "weights": "uniform"},
        "value_space": {"kind": "l1-of-mu"},
        "measure": {"kind": "indicator"},
        "functions": [[1.0, 0.0, 0.0, 0.0]],
        "experiment": {"kind": "daugavet", "sweep": [4, 64, 1024], "sign": -1},
    },
}


def preset_scenario(name: str) -> Scenario:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return build_scenario(PRESETS[name])
