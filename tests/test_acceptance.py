"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""
import math
import time

import numpy as np
import pytest
import scipy.integrate

from mixcara.basis import MonomialBasis
from mixcara.conegeo import strip_mass
from mixcara.harness import ExperimentConfig, run_experiment
from mixcara.jacobian import min_full_rank_atoms
from mixcara.measures import AtomicMeasure
from mixcara.moments import (
    MomentVector,
    component_moments,
    dirac_moments,
    gaussian_smoothed_basis,
)

GAP = MonomialBasis.univariate([0, 2, 3, 5, 6])


def _verdict(num: int, description: str, ok: bool, extra: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_smoothed_basis_exact_table():
    start = time.perf_counter()
    smoothed = gaussian_smoothed_basis(GAP)
    expected = {
        (0,): {((0,), 0): 1},
        (2,): {((2,), 0): 1, ((0,), 2): 1},
        (3,): {((3,), 0): 1, ((1,), 2): 3},
        (5,): {((5,), 0): 1, ((3,), 2): 10, ((1,), 4): 15},
        (6,): {((6,), 0): 1, ((4,), 2): 15, ((2,), 4): 45, ((0,), 6): 15},
    }
    exact = all(
        poly == expected[alpha] for alpha, poly in zip(GAP.exponents, smoothed.polynomials)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "smoothed basis on {1,x^2,x^3,x^5,x^6} reproduces the coefficient table exactly",
        exact and elapsed < 1.0,
        f"runtime {elapsed:.3f}s",
    )


def _double_factorial(j: int) -> int:
    out = 1
    while j > 1:
        out *= j
        j -= 2
    return out


def test_criterion_2_central_moments_exact():
    basis = MonomialBasis.full_degree(10)
    smoothed = gaussian_smoothed_basis(basis)
    univ = [
        {(key[0][0], key[1]): c for key, c in poly.items()} for poly in smoothed.polynomials
    ]
    ok = True
    for i in range(11):
        acc: dict = {}
        for j in range(i + 1):
            sign = -1 if (i - j) % 2 else 1
            coef = sign * math.comb(i, j)
            for (xp, sp), c in univ[j].items():
                key = (xp + i - j, sp)
                acc[key] = acc.get(key, 0) + coef * c
                if acc[key] == 0:
                    del acc[key]
        if i % 2 == 0:
            ok = ok and acc == {(0, i): _double_factorial(i - 1)}
        else:
            ok = ok and acc == {}
    _verdict(
        2,
        "central moments from the smoothed basis equal (i-1)!! sigma^i exactly "
        "for even i <= 10 and vanish for odd i",
        ok,
    )


def test_criterion_3_lognormal_against_quadrature():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        i = int(rng.integers(1, 9))
        xi = rng.uniform(0.5, 3.0)
        sigma = rng.uniform(0.1, 1.0)

        def integrand(u: float, i=i, xi=xi, sigma=sigma) -> float:
            exponent = i * u - (u - math.log(xi)) ** 2 / (2 * sigma**2)
            return math.exp(exponent) / (math.sqrt(2 * math.pi) * sigma)

        reference, _ = scipy.integrate.quad(
            integrand, -np.inf, np.inf, epsabs=0, epsrel=1e-10
        )
        basis = MonomialBasis.univariate([i])
        got = component_moments(basis, "lognormal", [[xi]], [sigma])[0, 0]
        worst = max(worst, abs(got - reference) / abs(reference))
    _verdict(
        3,
        "closed-form log-normal moments match density quadrature at 20 random triples",
        worst <= 1e-6,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_4_gaussian_shared_sigma_bound():
    start = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(experiment="univariate-gaussian-bound", trials=100, seed=2024)
    )
    elapsed = time.perf_counter() - start
    successes = report.aggregate["successes"]
    no_violation = report.aggregate["count_violations"] == 0
    _verdict(
        4,
        "shared-sigma Gaussian recovery succeeds on >= 95/100 random mixtures "
        "with k <= 3 and residual <= 1e-8",
        successes >= 95 and no_violation and elapsed < 30.0,
        f"{successes}/100, runtime {elapsed:.1f}s",
    )


def test_criterion_5_lognormal_bound():
    report = run_experiment(
        ExperimentConfig(experiment="lognormal-bound", trials=100, seed=2025)
    )
    successes = report.aggregate["successes"]
    no_violation = report.aggregate["count_violations"] == 0
    _verdict(
        5,
        "log-normal recovery with k <= 3 = ceil(6/2) succeeds on >= 95/100 mixtures",
        successes >= 95 and no_violation,
        f"{successes}/100",
    )


def test_criterion_6_gap_homotopy_bound():
    start = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(experiment="gap-homotopy", trials=50, seed=2026)
    )
    elapsed = time.perf_counter() - start
    successes = report.aggregate["successes"]
    _verdict(
        6,
        "homotopy recovery over {1,x^2,x^3,x^5,x^6} with k = 3 succeeds on >= 45/50",
        successes >= 45 and elapsed < 120.0,
        f"{successes}/50, runtime {elapsed:.1f}s",
    )


def test_criterion_7_rank_threshold_table():
    ok = True
    values = []
    for d in range(1, 10):
        basis = MonomialBasis.full_degree(d)
        expected = (d + 2) // 2
        result = min_full_rank_atoms(basis, max_k=expected + 2, trials=30, seed=77)
        values.append(result.value)
        ok = ok and result.value == expected
        ok = ok and result.value >= math.ceil(basis.m / 2)
    _verdict(
        7,
        "smallest full-rank atom count equals ceil((d+1)/2) for d = 1..9 and "
        "respects the ceil(m/2) lower bound",
        ok,
        f"table {values}",
    )


def test_criterion_8_reduction_stress():
    report = run_experiment(
        ExperimentConfig(experiment="reduction-stress", trials=500, seed=404)
    )
    successes = report.aggregate["successes"]
    worst = max(r.residual for r in report.rows)
    _verdict(
        8,
        "500 randomized reductions stay within m components and preserve "
        "moments to 1e-10 per entry",
        successes == 500,
        f"worst drift {worst:.2e}",
    )


def test_criterion_9_prescribed_component():
    report = run_experiment(
        ExperimentConfig(experiment="prescribe-check", trials=20, seed=909)
    )
    successes = report.aggregate["successes"]
    _verdict(
        9,
        "20 interior vectors admit representations containing an arbitrary "
        "prescribed component, moments matching to 1e-8",
        successes == 20,
        f"{successes}/20",
    )


def test_criterion_10_strip_mass_recovery():
    basis = MonomialBasis.full_degree(4)
    rng = np.random.default_rng(555)
    worst = 0.0
    for trial in range(50):
        pts = np.sort(rng.uniform(-1.5, 1.5, 2))
        while pts[1] - pts[0] < 0.3:
            pts = np.sort(rng.uniform(-1.5, 1.5, 2))
        base = dirac_moments(
            basis,
            AtomicMeasure(weights=rng.uniform(0.5, 2, 2), points=pts.reshape(-1, 1)),
        )
        c_true = rng.uniform(0.1, 5.0)
        if trial % 2 == 0:
            x0 = rng.uniform(-1.5, 1.5)
            while min(abs(x0 - pts[0]), abs(x0 - pts[1])) < 0.2:
                x0 = rng.uniform(-1.5, 1.5)
            direction = dirac_moments(
                basis, AtomicMeasure(weights=[1.0], points=[[x0]])
            ).values
        else:
            direction = np.zeros(basis.m)
            direction[-1] = 1.0  # mass escaping through the top-degree direction
        s = base.with_values(base.values + c_true * direction)
        v = MomentVector(values=direction, basis=basis)
        c_found, _ = strip_mass(s, v)
        worst = max(worst, abs(c_found - c_true))
    _verdict(
        10,
        "supremal mass stripping recovers a planted mass within 1e-6 over 50 instances",
        worst <= 1e-6,
        f"worst error {worst:.2e}",
    )


def test_criterion_11_deterministic_reports():
    ok = True
    for experiment, trials in (
        ("univariate-gaussian-bound", 5),
        ("lognormal-bound", 5),
        ("gap-homotopy", 2),
        ("na-table", 5),
        ("reduction-stress", 5),
        ("prescribe-check", 3),
    ):
        a = run_experiment(ExperimentConfig(experiment=experiment, trials=trials, seed=31))
        b = run_experiment(ExperimentConfig(experiment=experiment, trials=trials, seed=31))
        ok = ok and a.to_csv_text() == b.to_csv_text()
        ok = ok and a.to_json_text() == b.to_json_text()
    _verdict(
        11,
        "every experiment rerun with the same seed produces byte-identical reports",
        ok,
    )
