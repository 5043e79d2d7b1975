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
    experiment   {"kind": .., ..parameters}, see EXPERIMENTS

``EXPERIMENTS`` maps each experiment kind to its runner and to exactly the
parameters it reads, with their defaults (``None``: no default); any other
key is a validation error.  ``seed`` and ``exact_cutoff`` go to the norm
engines, ``seed`` of series_gap to its sampled family:

    norm         seed, exact_cutoff, restarts      per-function norm table
    martingale   seed, exact_cutoff, levels        martingale net
    basis        seed, exact_cutoff                truncation net
    rn_net       seed, exact_cutoff, family ("coordinate" | "expectation"), levels
    daugavet     sweep [n..], sign (+-1)           rank-one defect per uniform size
    identity     tolerance, lambda, other <measure>   combined-norm density identity
    series_gap   seed, sign, samples               distance of G to a partial sum

The three net kinds share one runner, which runs the kind's net on f =
functions[0], one row per level.  Its weak* test family is f alone or, when
the kind takes ``levels`` (martingale, and rn_net's expectation family, whose
nets run over the dyadic chain of that depth), f and the indicator of each
block of the chain's finest partition, which the runner passes as it is.

A ``Scenario`` holds the raw object (only echoed), the measure (its ``space``
and ``X`` are the scenario's), the functions and the checked experiment,
which holds the dyadic chain when the kind takes ``levels``.

``_CHECKS`` checks each numeric or sign parameter for every kind that takes
it; the number lists (weights, g, rows, functions) and the scale refuse bools,
numpy bools and strings by one scan of their entry types.  A ``space.n`` above
``rng.NORMALS_LIMIT`` (2**25) raises ``CapacityExceeded`` in the build, before
any array is allocated, so no report is made.  ``run`` takes the
scenario alone, so a report's echoed scenario reruns it, records
``metadata.seed`` only for kinds that take one, and records a floating-point
overflow or invalid operation in the report's error section.
Reports are deterministic for a fixed scenario (the wall-time metadata field
aside); floats are serialized with 17 significant digits, so every finite
float reads back equal in value (-0.0 and 1.0 as the integers 0 and 1).  CSV
output has one row per net level or sweep point with the documented
per-experiment header.  Daugavet sweep points use the O(n)
rank-one formula and run in sweep order on the calling thread; a sweep size
above ``SWEEP_LIMIT`` raises ``CapacityExceeded`` before any point runs.
Each measure kind has one constructor, which gives indicator the record
``Indicator()``, rank_one ``RankOne(g)``, composed over an indicator base
``Truncation(k)``, and the others their atom matrix.  Runners read these
records, never ``raw`` (only echoed): series_gap takes G from
``daugavet.integration_operator``, which is factored for an ``Indicator`` or
``RankOne`` record (O(samples * n), no atoms built) and dense otherwise.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .approx_nets import basis_net, basis_truncated_measure, martingale_net, rn_net, run_net
from .daugavet import (
    density_norm_identity, integration_operator, rank_one_defect, series_approximation_gap,
)
from .errors import CapacityExceeded, ParseError, ValidationError, VmlabError
from .l1m_norm import DEFAULT_EXACT_CUTOFF, HEURISTIC, norm_best, norm_heuristic
from .measure_core import MeasureSpace, SimpleFunction, dyadic_chain
from .normed_space import NormSpec, same_norm
from .rng import NORMALS_LIMIT, SplitMix64
from .vector_measure import VectorMeasure, indicator_measure, rank_one_measure

SCHEMA_VERSION = 1
SWEEP_LIMIT = 1 << 20  # largest daugavet sweep size: a point holds about ten n-float arrays


@dataclass(frozen=True, eq=False)
class Scenario:
    raw: dict
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
    """Reject bools, non-numbers (non-integers unless ``real``), NaN, infinities and values < ``low``.
    numpy integers and floats count as Python's; ``np.bool_`` is neither, so it is refused too."""
    types = (int, np.integer, float, np.floating) if real else (int, np.integer)
    number = not isinstance(value, bool) and isinstance(value, types)
    if not number or not -np.inf < value < np.inf or (low is not None and not value >= low):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{what} must be {'a finite real number' if real else 'an integer'}{bound}")


def _refuse_bools_and_strings(value, ndim: int, message: str):
    """ValidationError(message) if a number, list or array of ``ndim`` dimensions holds a
    bool or string.  The entry types are scanned, as no dtype shows a bool or string in a
    list of numbers (``np.bool_``, of a bool array's entries, is no subclass of ``bool``)."""
    entries = (value,) if ndim == 0 else value if ndim == 1 else chain.from_iterable(value)
    if any(issubclass(t, (bool, np.bool_, str)) for t in set(map(type, entries))):
        raise ValidationError(f"{message}; bools and strings are not numbers")


def _finite_array(value, shape: tuple, message: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries and no bool or string,
    else ValidationError(message)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(message) from None
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ValidationError(message)
    _refuse_bools_and_strings(value, len(shape), message)
    return arr


def _check_sign(value, what: str):
    if isinstance(value, (bool, np.bool_)) or value not in (-1, 1):
        raise ValidationError(f"{what} must be -1 or 1")


def _build_space(section) -> MeasureSpace:
    _require_keys(section, {"n", "weights"}, {"n", "weights"}, "space")
    n = section["n"]
    _check_number(n, "space.n", 1)
    if n > NORMALS_LIMIT:  # before any n-float array is allocated
        raise CapacityExceeded(f"space.n {n} exceeds the limit {NORMALS_LIMIT}")
    weights = section["weights"]
    if isinstance(weights, str) and weights == "uniform":  # an array's == compares entries
        return MeasureSpace.uniform(n)
    weights = _finite_array(weights, (n,), "weights must list one value per atom, all finite")
    if np.any(weights <= 0.0) or not math.isfinite(1.0 / float(weights.min())):
        raise ValidationError("weights must be positive, each with a finite reciprocal")
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
        X = NormSpec(kind, d, scale)
    except (TypeError, ValueError) as exc:  # TypeError: a scale numpy cannot read as floats
        raise ValidationError(f"invalid value_space scale: {exc}") from exc
    _refuse_bools_and_strings(scale, np.ndim(scale), "invalid value_space scale")
    return X


def _build_measure(section, space: MeasureSpace, X: NormSpec, where: str = "measure") -> VectorMeasure:
    _require_keys(section, {"kind", "g", "seed", "rows", "base", "k"}, {"kind"}, where)
    kind = section.get("kind")
    if kind == "indicator":
        _require_keys(section, {"kind"}, {"kind"}, where)
        if X.dim != space.n:
            raise ValidationError(f"{where}: indicator measure needs value_space dimension equal to n")
        return indicator_measure(space, X)
    if kind == "rank_one":
        _require_keys(section, {"kind", "g"}, {"kind", "g"}, where)
        message = f"{where}: rank_one density g must have value_space dimension, all finite"
        g = _finite_array(section["g"], (X.dim,), message)
        if not math.isfinite(float(space.weights.max()) * float(np.abs(g).max())):
            raise ValidationError(f"{where} rank_one atoms mu_i * g overflow")
        return rank_one_measure(space, g, X)
    if kind == "random":
        _require_keys(section, {"kind", "seed"}, {"kind", "seed"}, where)
        _check_number(section["seed"], f"{where}.seed")
        gen = SplitMix64(section["seed"])
        atoms = gen.normals(space.n * X.dim)
        atoms.setflags(write=False)  # so the measure holds the normals, not a copy
        return VectorMeasure(space, X, atoms.reshape(space.n, X.dim))
    if kind == "matrix":
        _require_keys(section, {"kind", "rows"}, {"kind", "rows"}, where)
        message = f"{where}: matrix measure needs n rows of value_space dimension, all finite"
        atoms = _finite_array(section["rows"], (space.n, X.dim), message)
        return VectorMeasure(space, X, atoms)
    if kind == "composed":
        _require_keys(section, {"kind", "base", "k"}, {"kind", "base", "k"}, where)
        base = _build_measure(section["base"], space, X, where=f"{where}.base")
        k = section["k"]
        _check_number(k, f"{where}.k", 1)
        if k > X.dim:
            raise ValidationError(f"{where}: composed truncation rank k must be in 1..d")
        return basis_truncated_measure(base, k)
    raise ValidationError(f"{where}: unknown measure kind {kind!r}")


def _build_experiment(section, scenario_ctx) -> dict:
    if not isinstance(section, dict) or "kind" not in section:
        raise ValidationError("experiment must be an object with a kind")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment kind {kind!r}")
    params = EXPERIMENTS[kind][1]
    _require_keys(section, {"kind", *params}, {"kind"}, "experiment")
    exp = {**{key: value for key, value in params.items() if value is not None}, **section}
    for key, check in _CHECKS.items():
        if key in params:
            check(exp[key], f"{kind} {key}")
    space, X, functions = scenario_ctx
    if EXPERIMENTS[kind][0] is _run_net and not functions:
        raise ValidationError(f"experiment {kind} needs at least one function")
    if kind == "rn_net":
        if exp["family"] not in ("coordinate", "expectation"):
            raise ValidationError("rn_net family must be coordinate or expectation")
        if exp["family"] == "coordinate" and "levels" in exp:
            raise ValidationError("rn_net levels apply to the expectation family only")
        if exp["family"] == "expectation" and X.dim != space.n:
            raise ValidationError("expectation family needs value_space dimension equal to n")
    if kind == "martingale" or (kind == "rn_net" and exp["family"] == "expectation"):
        try:  # the runner's chain: dyadic_chain checks the level count
            exp["chain"] = dyadic_chain(exp.get("levels"), space)
        except ValueError as exc:
            raise ValidationError(f"{kind}: {exc}") from None
    if kind == "daugavet":
        sweep = exp.setdefault("sweep", [space.n])
        if not isinstance(sweep, list) or not sweep:
            raise ValidationError("daugavet sweep must be a nonempty list of integers >= 1")
        for size in sweep:
            _check_number(size, "daugavet sweep entry", 1)
    elif kind == "identity":
        if not X.is_polyhedral:
            raise ValidationError("identity experiment needs a polyhedral value_space")
        exp["other"] = _build_measure(exp["other"], space, X, where="experiment.other")
    elif kind == "series_gap":
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
        message = f"functions[{idx}] must have one coefficient per atom, all finite"
        functions.append(SimpleFunction(space, _finite_array(coeffs, (space.n,), message)))
    experiment = _build_experiment(data["experiment"], (space, X, functions))
    return Scenario(data, measure, functions, experiment)


def read_scenario(path):
    """Read and parse a scenario file; ``build_scenario`` validates it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"scenario {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return data


def _run_norm(sc: Scenario, exp: dict) -> dict:
    rows = []
    for idx, f in enumerate(sc.functions):
        kw = dict(restarts=exp["restarts"], seed=exp["seed"])
        best = norm_best(sc.measure, f, exact_cutoff=exp["exact_cutoff"], **kw)
        heur = best if best.method == HEURISTIC else norm_heuristic(sc.measure, f, **kw)
        rows.append([idx, best.value, best.method, heur.value])
    return {"columns": ["f_index", "value", "method", "heuristic"], "rows": rows}


def _run_net(sc: Scenario, exp: dict) -> dict:
    """The runner of the three net kinds; the module docstring gives its test family."""
    m, f = sc.measure, sc.functions[0]
    chain = exp.get("chain")
    if exp["kind"] == "basis":
        net = basis_net(m)
    else:
        net = (martingale_net if exp["kind"] == "martingale" else rn_net)(m, chain)
    blocks = None if chain is None else chain[-1]
    levels = run_net(m, net, f, blocks=blocks, exact_cutoff=exp["exact_cutoff"], seed=exp["seed"])
    rows = [[lv.index, lv.norm_gap, lv.deviation, lv.pointwise_gap, lv.weakstar_gap] for lv in levels]
    return {"columns": ["level", "norm_gap", "deviation", "pointwise_gap", "weakstar_gap"], "rows": rows}


def _daugavet_point(n: int, sign: float) -> list:
    rep = rank_one_defect(MeasureSpace.uniform(n), sign * np.ones(n), np.ones(n))
    return [n, rep.norm_G, rep.norm_T, rep.norm_sum, rep.defect]


def _run_daugavet(sc: Scenario, exp: dict) -> dict:
    if max(exp["sweep"]) > SWEEP_LIMIT:
        raise CapacityExceeded(f"daugavet sweep size {max(exp['sweep'])} exceeds the limit {SWEEP_LIMIT}")
    rows = [_daugavet_point(n, float(exp["sign"])) for n in exp["sweep"]]
    return {"columns": ["n", "norm_id", "norm_T", "norm_sum", "defect"], "rows": rows}


def _run_identity(sc: Scenario, exp: dict) -> dict:
    lam = float(exp["lambda"])
    rep = density_norm_identity(sc.measure, exp["other"], lam)
    within = bool(rep.gap <= exp["tolerance"])
    columns = ["lambda", "operator_side", "density_side", "atom_side", "gap", "within_tolerance"]
    rows = [[lam, rep.operator_side, rep.density_side, rep.atom_side, rep.gap, within]]
    return {"columns": columns, "rows": rows}


def _run_series_gap(sc: Scenario, exp: dict) -> dict:
    """G is the measure's integration map; the part is that of sign * 1 mu^T."""
    G, space = integration_operator(sc.measure), sc.measure.space
    part = integration_operator(rank_one_measure(space, float(exp["sign"]) * np.ones(space.n)))
    rep = series_approximation_gap(G, [part], samples=exp["samples"], seed=exp["seed"])
    return {"columns": ["gap_norm", "c_estimate"], "rows": [[rep.gap_norm, rep.c_estimate]]}


_ENGINE = {"seed": 0, "exact_cutoff": DEFAULT_EXACT_CUTOFF}  # what the norm engines read

EXPERIMENTS = {
    "norm": (_run_norm, {**_ENGINE, "restarts": 8}),
    "martingale": (_run_net, {**_ENGINE, "levels": None}),
    "basis": (_run_net, dict(_ENGINE)),
    "rn_net": (_run_net, {**_ENGINE, "family": "coordinate", "levels": None}),
    "daugavet": (_run_daugavet, {"sweep": None, "sign": -1}),  # sweep defaults to [n]
    "identity": (_run_identity, {"tolerance": 1e-10, "lambda": 1.0, "other": {"kind": "indicator"}}),
    "series_gap": (_run_series_gap, {"seed": 0, "sign": -1, "samples": 64}),
}

_CHECKS = {
    "seed": _check_number,
    "exact_cutoff": partial(_check_number, low=0),
    "tolerance": partial(_check_number, low=0, real=True),
    "restarts": partial(_check_number, low=1),
    "samples": partial(_check_number, low=0),
    "lambda": partial(_check_number, real=True),
    "sign": _check_sign,
}


def run(scenario: Scenario) -> dict:
    """Execute the scenario's experiment and assemble the report.

    The scenario is the only input, so its echo reruns the experiment.  Package
    errors, and floating-point overflow or invalid operations (raised under
    ``np.errstate``), are recorded in the report's error section instead of
    propagating, so partial results survive.
    """
    exp = scenario.experiment
    started = time.perf_counter()
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.raw,
        "results": {"experiment": exp["kind"]},
        "metadata": {"package": "vmlab", "version": __version__},
    }
    if "seed" in exp:
        report["metadata"]["seed"] = exp["seed"]
    try:
        with np.errstate(over="raise", invalid="raise"):
            report["results"].update(EXPERIMENTS[exp["kind"]][0](scenario, exp))
    except (VmlabError, FloatingPointError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["metadata"]["wall_time_s"] = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# serialization

def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot serialize a non-finite number")
    return format(value, ".17g")


# the plain scalars by exact type; numpy scalars and subclasses take the checks below
_SCALAR_TEXT = {type(None): lambda _: "null", bool: lambda b: "true" if b else "false", int: int.__repr__,
                float: _float_text, str: encode_basestring_ascii}  # the bytes of json.dumps(str)


def _canon(obj, indent: int) -> str:
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad = "\n" + "  " * indent
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [_canon(v, indent + 1) for v in obj]
        return "".join(["[", inner, ("," + inner).join(parts), pad, "]"])
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)  # stable: str-equal keys keep their insertion order
        parts = [f"{encode_basestring_ascii(str(k))}: {_canon(obj[k], indent + 1)}" for k in keys]
        return "".join(["{", inner, ("," + inner).join(parts), pad, "}"])
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats, newline-terminated.
    Every finite float reads back equal in value, -0.0 and 1.0 as the ints 0 and 1."""
    return _canon(report, 0) + "\n"


def _csv_cell(value) -> str:
    return value if isinstance(value, str) else _canon(value, 0)


def dumps_csv(report: dict) -> str:
    results = report.get("results", {})
    columns = results.get("columns", [])
    rows = results.get("rows", [])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str, path=None) -> None:
    """Write the report as canonical JSON or as the per-experiment CSV table:
    the command line's one writer, presets included; ``OSError`` names the path."""
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
        raise OSError(f"cannot write {path}: {exc}") from exc


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

