"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the heuristic match rate.
"""

import copy
import time

import numpy as np

from helpers import (
    canonical_pair,
    dual_norm,
    koethe_dual_norm,
    l1_mu_norm,
    random_function,
    random_measure,
    random_norm_spec,
    random_space,
    rn_derivative,
    sign_function,
)
from vmlab import (
    MeasurableSet,
    MeasureSpace,
    SimpleFunction,
    basis_truncated_measure,
    daugavet_defect,
    density_norm_identity,
    deviation,
    dyadic_chain,
    indicator_measure,
    integrate,
    integration_operator,
    martingale_net,
    norm,
    norm_best,
    norm_closed_form,
    norm_exact,
    norm_heuristic,
    opnorm_from_l1,
    rank_one_operator,
    run_net,
)
from vmlab.harness import EXPERIMENTS, PRESETS, build_scenario, dumps_report, run


class _criterion:
    def __init__(self, tag, detail):
        self.tag = tag
        self.detail = detail

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"[{self.tag}] {status} ({self.elapsed:.2f}s) {self.detail}")
        return False


def test_criterion_01_isometric_representation():
    with _criterion("A01", "indicator and rank-one measures are isometric to L1(mu)") as c:
        rng = np.random.default_rng(101)
        for n in (4, 8, 16):
            space = MeasureSpace.uniform(n)
            m0, m1 = canonical_pair(space, SimpleFunction(space, np.ones(n)))
            for _ in range(100):
                f = random_function(rng, space)
                reference = l1_mu_norm(f)
                assert abs(norm_best(m0, f).value - reference) <= 1e-10
                assert abs(norm_best(m1, f).value - reference) <= 1e-10
        assert c.elapsed < 1.0


def test_criterion_02_norm_engines_agree():
    with _criterion("A02", "sign enumeration equals dual extreme-point form") as c:
        rng = np.random.default_rng(102)
        kinds = ("L1", "L2", "LINF")
        for trial in range(500):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 7))
            space = random_space(rng, n)
            X = random_norm_spec(rng, d, kinds[trial % 3])
            m = random_measure(rng, space, X)
            f = random_function(rng, space)
            exact = norm_exact(m, f)
            if X.is_polyhedral:
                assert abs(exact.value - norm_closed_form(m, f).value) <= 1e-10
            for _ in range(8):
                A = MeasurableSet(space, rng.random(n) < 0.5)
                h = sign_function(A)
                lower = norm(X, integrate(m, SimpleFunction(space, f.coeffs * h.coeffs)))
                assert lower <= exact.value + 1e-12
        assert c.elapsed < 10.0


def test_criterion_03_deviation_bounds_norm_gap():
    with _criterion("A03", "norm gaps are dominated by the deviation seminorm") as c:
        rng = np.random.default_rng(103)
        kinds = ("L1", "L2", "LINF")
        for trial in range(1000):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 6))
            space = random_space(rng, n)
            X = random_norm_spec(rng, d, kinds[trial % 3])
            ma = random_measure(rng, space, X)
            mb = random_measure(rng, space, X)
            f = random_function(rng, space)
            gap = abs(norm_exact(ma, f).value - norm_exact(mb, f).value)
            assert gap <= deviation(ma, mb, f) + 1e-10
        assert c.elapsed < 10.0


def test_criterion_04_martingale_convergence():
    with _criterion("A04", "dyadic martingale net converges on the canonical measure") as c:
        for levels in (2, 3, 4, 5, 6):
            n = 1 << levels
            space = MeasureSpace.uniform(n)
            m = indicator_measure(space)
            chain = dyadic_chain(levels, space)
            coeffs = np.zeros(n)
            coeffs[0] = 1.0
            f = SimpleFunction(space, coeffs)
            report = run_net(m, martingale_net(m, chain), f)
            assert report.levels[-1].pointwise_gap == 0.0
            assert report.levels[-1].norm_gap == 0.0
            for stats in report.levels:
                assert stats.norm_gap <= stats.deviation + 1e-10
            if n == 4:
                assert report.levels[1].pointwise_gap == 0.25
        assert c.elapsed < 5.0


def test_criterion_05_basis_projection_convergence():
    with _criterion("A05", "coordinate truncations increase to the full norm") as c:
        rng = np.random.default_rng(105)
        kinds = ("L1", "L2", "LINF")
        for trial in range(60):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 9))
            space = random_space(rng, n)
            X = random_norm_spec(rng, d, kinds[trial % 3])
            m = random_measure(rng, space, X)
            f = random_function(rng, space)
            target = norm_exact(m, f).value
            for k in range(1, d + 1):
                value = norm_exact(basis_truncated_measure(m, k), f).value
                assert value <= target + 1e-10
            assert abs(value - target) <= 1e-10  # k = d restores the measure


def test_criterion_06_derivative_density_bound():
    with _criterion("A06", "derivative densities respect the dual-norm bound (LP-exact)") as c:
        rng = np.random.default_rng(106)
        for trial in range(500):
            n = int(rng.integers(2, 13))
            kind = ("L1", "LINF")[trial % 2]
            d = int(rng.integers(1, 6)) if kind == "L1" else int(rng.integers(1, 9))
            space = random_space(rng, n)
            X = random_norm_spec(rng, d, kind)
            m = random_measure(rng, space, X)
            xstar = rng.normal(size=d)
            phi = rn_derivative(m, xstar)
            assert koethe_dual_norm(m, phi) <= dual_norm(X, xstar) + 1e-9


def test_criterion_07_integration_map_has_norm_one():
    with _criterion("A07", "the canonical integration map has operator norm one") as c:
        for n in (4, 64):
            m = indicator_measure(MeasureSpace.uniform(n))
            value = opnorm_from_l1(integration_operator(m)).value
            assert abs(value - 1.0) <= 1e-12


def test_criterion_08_rank_one_defect_decay():
    with _criterion("A08", "rank-one defects: negative 2/n exactly, positive zero") as c:
        for n in (4, 64, 1024, 4096):
            space = MeasureSpace.uniform(n)
            neg = daugavet_defect(rank_one_operator(space, -np.ones(n), np.ones(n)))
            assert abs(neg.defect - 2.0 / n) <= 1e-12
            pos = daugavet_defect(rank_one_operator(space, np.ones(n), np.ones(n)))
            assert pos.defect == 0.0
        assert c.elapsed < 5.0


def test_criterion_09_density_identity():
    with _criterion("A09", "operator norms equal the density-side suprema") as c:
        rng = np.random.default_rng(109)
        for trial in range(200):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 7))
            space = random_space(rng, n)
            X = random_norm_spec(rng, d, ("L1", "LINF")[trial % 2])
            ma = random_measure(rng, space, X)
            mb = random_measure(rng, space, X)
            rep = density_norm_identity(ma, mb, float(rng.normal()))
            assert rep.gap <= 1e-10
        for n in (4, 8):
            space = MeasureSpace.uniform(n)
            m0, m1 = canonical_pair(space, SimpleFunction(space, np.ones(n)))
            rep = density_norm_identity(m0, m1, 1.0)
            assert abs(rep.operator_side - 2.0) <= 1e-10
            assert abs(rep.density_side - 2.0) <= 1e-10


def test_criterion_10_heuristic_soundness():
    with _criterion("A10", "hill climbing never exceeds the exact norm") as c:
        rng = np.random.default_rng(110)
        kinds = ("L1", "L2", "LINF")
        matches = 0
        for trial in range(500):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 6))
            space = random_space(rng, n)
            X = random_norm_spec(rng, d, kinds[trial % 3])
            m = random_measure(rng, space, X)
            f = random_function(rng, space)
            exact = norm_exact(m, f).value
            heur = norm_heuristic(m, f, restarts=8, seed=trial).value
            assert heur <= exact + 1e-12
            if abs(heur - exact) <= 1e-10:
                matches += 1
        print(f"[A10] heuristic matched the exact value on {matches}/500 instances")


def test_criterion_11_report_determinism():
    with _criterion("A11", "identical scenario and seed give byte-identical reports") as c:
        def rendered(name):
            data = copy.deepcopy(PRESETS[name])
            if "seed" in EXPERIMENTS[data["experiment"]["kind"]][1]:
                data["experiment"]["seed"] = 7
            report = run(build_scenario(data))
            clone = copy.deepcopy(report)
            del clone["metadata"]["wall_time_s"]
            return dumps_report(clone).encode()

        for name in sorted(PRESETS):
            assert rendered(name) == rendered(name), name
