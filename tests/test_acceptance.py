"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -v -s`` to see them).

Tolerances and runtime budgets are pinned here; simulation-based checks
assert orderings and ratio bands, not digit-level table values, because
the generating analyte curves are this package's own defaults.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
from scipy.optimize import minimize

from specal.basis import (
    KnotVector,
    design_matrix,
    make_knots,
    penalty_matrix,
)
from specal.calibrate import (
    CovarianceModel,
    fit_gls,
    fit_ols,
    fit_penalized,
)
from specal.cli import main
from specal.model import ConcentrationMatrix, SpectraSet, assemble_design
from specal.predict import jackknife_sd, predict_concentrations, sep
from specal.methods import FitSpec
from specal.simulate import (
    STRONG_PHI,
    WEAK_PHI,
    SimConfig,
    generate_dataset,
    gp_cholesky,
    run_bias_variance_study,
    run_jackknife_study,
    sample_dirichlet,
)

from oracles import basis_values, dense_covariance, dense_system, derivative_matrix
from test_basis import dense_penalty
from test_simulate import colour

JOBS = min(2, os.cpu_count() or 1)


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {number:02d} ({label}): "
          f"PASS ({elapsed:.1f}s / limit {limit_seconds}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.1f}s >= {limit_seconds}s"
    )


def random_knot_vector(rng):
    num_basis = int(rng.integers(4, 20))
    interior = np.sort(rng.uniform(0.0, 10.0, num_basis - 4))
    knots = np.concatenate([np.zeros(4), interior, np.full(4, 10.0)])
    return KnotVector(knots)


def test_criterion_1_basis_correctness():
    with criterion(1, "basis correctness", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            kv = random_knot_vector(rng)
            t = rng.uniform(0.0, 10.0)
            values = design_matrix(kv, [t]).dense()[0]
            assert abs(values.sum() - 1.0) < 1e-12
            assert np.all(values >= 0.0)
            for k in np.nonzero(values)[0]:
                assert kv.knots[k] <= t <= kv.knots[k + 4]

        # Fine-grid trapezoid oracle on an evenly spaced knot vector.
        kv = make_knots((0.0, 10.0), 12)
        entries = dense_penalty(penalty_matrix(kv))
        dense = np.linspace(0.0, 10.0, 100_001)
        d2 = derivative_matrix(kv, dense, deriv=2)
        weights = np.full(dense.size, dense[1] - dense[0])
        weights[[0, -1]] *= 0.5
        oracle = (d2 * weights[:, None]).T @ d2
        npt.assert_allclose(entries, oracle,
                            atol=1e-8 * max(1.0, np.abs(entries).max()))

        # Per-span Simpson oracle (a different rule family, exact for the
        # piecewise-quadratic integrand) for arbitrary random knots.
        kv = random_knot_vector(np.random.default_rng(7))
        breaks = np.unique(kv.knots)
        lo, hi = breaks[:-1], breaks[1:]
        nodes = np.concatenate([lo, 0.5 * (lo + hi), hi])
        span_w = (hi - lo) / 6.0
        weights = np.concatenate([span_w, 4.0 * span_w, span_w])
        order = np.argsort(nodes, kind="stable")
        d2 = derivative_matrix(kv, nodes[order], deriv=2)
        simpson = (d2 * weights[order][:, None]).T @ d2
        entries = dense_penalty(penalty_matrix(kv))
        npt.assert_allclose(entries, simpson,
                            atol=1e-8 * max(1.0, np.abs(entries).max()))

        cardinal = basis_values(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), 4,
                                 np.array([2.0]))[0, 0]
        assert abs(cardinal - 2.0 / 3.0) < 1e-13


def _identity_system(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 10.0, 31)
    kv = make_knots((0.0, 10.0), 6)
    b = design_matrix(kv, grid).dense()
    coef = rng.standard_normal((3, 6))
    theta = np.linspace(0.2, 1.3, 8) + rng.uniform(-0.05, 0.05, 8)
    y = np.column_stack([np.cos(theta), np.sin(theta)])
    w = coef[0] @ b.T + y @ (coef[1:] @ b.T) + 0.2 * rng.standard_normal((8, 31))
    spectra = SpectraSet(grid=grid, absorbance=w)
    conc = ConcentrationMatrix(values=y)
    return spectra, conc, kv, b


def test_criterion_2_estimator_identities():
    with criterion(2, "estimator identities", 10.0):
        for seed in range(20):
            spectra, conc, kv, b = _identity_system(seed)
            design = assemble_design(spectra, conc, kv)
            pen = penalty_matrix(kv)
            x_plus, w_plus = dense_system(design)

            ols = fit_ols(design)
            resid = w_plus - x_plus @ ols.coefficients.ravel()
            score = x_plus.T @ resid
            scale = max(np.abs(x_plus).max() * np.abs(w_plus).max(), 1.0)
            assert np.abs(score).max() < 1e-8 * scale

            lam = 3.0
            pm = fit_penalized(design, pen, lam)
            gram = x_plus.T @ x_plus
            full_pen = np.kron(np.eye(3), dense_penalty(pen))
            lhs = (gram + lam * full_pen) @ pm.coefficients.ravel()
            rhs = x_plus.T @ w_plus
            assert np.abs(lhs - rhs).max() < 1e-8 * max(np.abs(rhs).max(), 1.0)

            p0 = fit_penalized(design, pen, 0.0)
            assert np.abs(p0.coefficients - ols.coefficients).max() < \
                1e-10 * max(np.abs(ols.coefficients).max(), 1.0)

            cov = CovarianceModel(sigma2=np.array([0.5, 2.0]),
                                  phi=np.array([0.3, 1.0]))
            gls = fit_gls(design, cov, diagnostics=False)
            blocks, rhs_parts = [], []
            for i in range(8):
                sigma = dense_covariance(cov, spectra.grid, conc.values[i])
                chol = np.linalg.cholesky(sigma)
                xi = np.kron(np.concatenate([[1.0], conc.values[i]])[None, :], b)
                blocks.append(np.linalg.solve(chol, xi))
                rhs_parts.append(np.linalg.solve(chol, spectra.absorbance[i]))
            white = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs_parts),
                                    rcond=None)[0]
            assert np.abs(gls.coefficients.ravel() - white).max() < \
                1e-10 * max(np.abs(white).max(), 1.0)

            iso = CovarianceModel(sigma2=np.full(2, 2.7), phi=np.full(2, 1e4))
            gls_iso = fit_gls(design, iso, diagnostics=False)
            x = np.kron(np.column_stack([np.ones(8), conc.values]), b)
            plain = np.linalg.lstsq(x, spectra.absorbance.ravel(), rcond=None)[0]
            assert np.abs(gls_iso.coefficients.ravel() - plain).max() < \
                1e-8 * max(np.abs(plain).max(), 1.0)


def test_criterion_3_prediction_oracle():
    with criterion(3, "prediction closed form vs numeric minimizer", 10.0):
        rng = np.random.default_rng(99)
        grid = np.linspace(0.0, 10.0, 41)
        kv = make_knots((0.0, 10.0), 8)
        coef = rng.standard_normal((4, 8))
        y_cal = rng.uniform(0.1, 1.5, (10, 3))
        b = design_matrix(kv, grid).dense()
        w_cal = coef[0] @ b.T + y_cal @ (coef[1:] @ b.T)
        model = fit_ols(assemble_design(
            SpectraSet(grid=grid, absorbance=w_cal),
            ConcentrationMatrix(values=y_cal), kv,
        ))
        curves = model.curve_values(grid)

        y_star = np.array([[0.2, 0.3, 0.5]])
        exact = SpectraSet(grid=grid,
                           absorbance=curves[0] + y_star @ curves[1:])
        npt.assert_allclose(predict_concentrations(model, exact), y_star,
                            atol=1e-10)

        # The thin-SVD solve against LAPACK's least squares on a batch, also
        # held to a component sum (y = 1/3 + v z, v spanning the zero sums).
        batch_rng = np.random.default_rng(100)
        w = (curves[0] + batch_rng.uniform(0, 1, (300, 3)) @ curves[1:]
             + 0.4 * batch_rng.standard_normal((300, grid.size)))
        batch = SpectraSet(grid=grid, absorbance=w)
        a, resid = curves[1:].T, (w - curves[0]).T
        v = np.linalg.qr(np.ones((3, 1)), mode="complete")[0][:, 1:]
        for sum_to, oracle in (
                (None, np.linalg.lstsq(a, resid, rcond=None)[0].T),
                (1.0, 1 / 3 + (v @ np.linalg.lstsq(
                    a @ v, resid - (a @ np.full(3, 1 / 3))[:, None],
                    rcond=None)[0]).T)):
            npt.assert_allclose(predict_concentrations(model, batch, sum_to),
                                oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

        for _ in range(20):
            w = (curves[0] + rng.uniform(0, 1, 3) @ curves[1:]
                 + 0.4 * rng.standard_normal(grid.size))
            target = SpectraSet(grid=grid, absorbance=w[None, :])
            y_hat = predict_concentrations(model, target)[0]

            def objective(y):
                r = w - curves[0] - y @ curves[1:]
                return r @ r

            result = minimize(objective, np.full(3, 0.4), method="Nelder-Mead",
                              options={"xatol": 1e-10, "fatol": 1e-13,
                                       "maxiter": 20000, "maxfev": 20000})
            assert np.abs(y_hat - result.x).max() < 1e-6


def test_criterion_4_correlation_inflates_jackknife_sd():
    with criterion(4, "strong/weak jackknife spread ratio", 300.0):
        spec = FitSpec(method="ols-k", num_basis=14)
        weak, strong = [], []
        for seed in range(1, 21):
            for phi, sink in ((WEAK_PHI, weak), (STRONG_PHI, strong)):
                cfg = SimConfig(seed=seed, num_samples=20, phi=phi)
                spectra, conc, _ = generate_dataset(cfg)
                sink.append(jackknife_sd(spectra, conc, spec))
        weak_med = np.median(np.array(weak), axis=0)
        strong_med = np.median(np.array(strong), axis=0)
        ratio = strong_med / weak_med
        print(f"  weak medians {np.round(weak_med, 4)}, "
              f"strong medians {np.round(strong_med, 4)}, "
              f"ratios {np.round(ratio, 2)}")
        assert np.all(ratio >= 1.5) and np.all(ratio <= 6.0)


def test_criterion_5_method_comparison_orderings():
    with criterion(5, "method comparison table orderings", 1200.0):
        replicates = 50
        weak_methods = ["OLS-K", "OLS-SS", "MLR", "PCR-o", "PCR-p",
                        "PLS-o", "PLS-p"]
        strong_methods = ["OLS-K", "GLS-K", "OLS-SS", "MLR", "PCR-o",
                          "PCR-p", "PLS-o", "PLS-p"]
        cells = {}
        for size in (20, 100):
            for phi, label, methods in (
                (WEAK_PHI, "weak", weak_methods),
                (STRONG_PHI, "strong", strong_methods),
            ):
                cfg = SimConfig(seed=1, num_samples=size, phi=phi)
                result = run_jackknife_study(cfg, methods, replicates, jobs=JOBS)
                cells[(label, size)] = {
                    name: result.summary()[name]["overall_median"]
                    for name in methods
                }
                assert all(result.failures[name] == 0 for name in methods), \
                    f"unexpected failures in {label}/I={size}: {result.failures}"
        for key, table in sorted(cells.items()):
            print(f"  {key}: { {k: round(v, 4) for k, v in table.items()} }")

        # (a) growing the calibration set barely moves the functional methods
        for label, names in (("weak", ["OLS-K", "OLS-SS"]),
                             ("strong", ["OLS-K", "OLS-SS", "GLS-K"])):
            for name in names:
                small = cells[(label, 20)][name]
                large = cells[(label, 100)][name]
                assert abs(large - small) / small < 0.25, (name, label)

        # (b) component-selection baselines beat plain functional LS under
        # strong correlation
        strong20 = cells[("strong", 20)]
        for name in ("PCR-o", "PCR-p", "PLS-o", "PLS-p"):
            assert strong20[name] < strong20["OLS-K"], name

        # (c) functional methods do not lose to MLR: directly in the weak
        # scenario, and in the pooled across-design summary
        for size in (20, 100):
            weak = cells[("weak", size)]
            assert weak["OLS-K"] <= weak["MLR"]
            assert weak["OLS-SS"] <= weak["MLR"]
        for name in ("OLS-K", "OLS-SS"):
            pooled_func = np.median([cells[cell][name] for cell in cells])
            pooled_mlr = np.median([cells[cell]["MLR"] for cell in cells])
            assert pooled_func <= pooled_mlr, name


def test_criterion_6_bias_variance_orderings():
    with criterion(6, "bias/variance study orderings", 600.0):
        methods = ["OLS-K", "OLS-SS", "MLR", "PCR-p", "PLS-p"]
        results = {}
        for phi, label in ((WEAK_PHI, "weak"), (STRONG_PHI, "strong")):
            cfg = SimConfig(seed=1, num_samples=20, phi=phi)
            results[label] = run_bias_variance_study(
                cfg, methods, learning_sets=10, prediction_reps=5, jobs=JOBS,
            )
        for label, res in results.items():
            table = {m: (round(res.squared_bias[m].sum(), 4),
                         round(res.variability[m].sum(), 4)) for m in methods}
            print(f"  {label}: B2/V {table}")
        for name in methods:
            b2_weak = results["weak"].squared_bias[name].sum()
            b2_strong = results["strong"].squared_bias[name].sum()
            v_weak = results["weak"].variability[name].sum()
            v_strong = results["strong"].variability[name].sum()
            assert b2_strong > b2_weak, name
            assert v_strong > v_weak, name
        assert (results["strong"].squared_bias["PCR-p"].sum()
                < results["strong"].squared_bias["OLS-K"].sum())


def test_criterion_7_dirichlet_moments():
    with criterion(7, "Dirichlet component spread", 5.0):
        rng = np.random.default_rng(123)
        draws = sample_dirichlet(rng, 100_000, 1.0, 3)
        sd = draws.std(axis=0)
        target = np.sqrt(1.0 / 18.0)
        assert np.all(np.abs(sd - target) / target < 0.03)


def test_criterion_8_noise_generator_moments():
    with criterion(8, "noise generator moments", 30.0):
        grid = np.arange(350.0, 751.0, 5.0)
        for phi, expected in ((0.002, np.exp(-0.01)), (0.5, np.exp(-2.5))):
            band = gp_cholesky(grid, 4.0, phi)
            rng = np.random.default_rng(17)
            draws = colour(band, rng.standard_normal((grid.size, 2000))).T
            x = draws[:, :-1].ravel()
            z = draws[:, 1:].ravel()
            corr = (x * z).mean() / np.sqrt((x * x).mean() * (z * z).mean())
            assert abs(corr - expected) < 0.03, phi
        band = gp_cholesky(grid, 4.0, 0.5)
        rng = np.random.default_rng(18)
        draws = colour(band, rng.standard_normal((grid.size, 10_000))).T
        variances = draws.var(axis=0)
        assert np.all(np.abs(variances - 4.0) / 4.0 < 0.05)


def test_criterion_9_sep_unit_cases():
    with criterion(9, "SEP unit cases", 1.0):
        report = sep(np.array([[0.5], [0.5]]), np.array([[0.4], [0.6]]))
        assert abs(report.per_component[0] - np.sqrt(0.02)) < 1e-12
        assert abs(report.per_component[0] - 0.1414) < 1e-4
        zero = sep(np.array([[0.1, 0.9], [0.4, 0.6]]),
                   np.array([[0.1, 0.9], [0.4, 0.6]]))
        assert zero.overall == 0.0
        assert np.all(zero.per_component == 0.0)


def _run_pipeline(root):
    data = root / "data"
    out = root / "out"
    out.mkdir()
    args_common = ["--spectra", str(data / "cal_spectra.csv"),
                   "--concentrations", str(data / "cal_concentrations.csv")]
    assert main(["simulate", "--study", "dataset", "--scenario", "weak",
                 "--samples", "12", "--seed", "11",
                 "--out-dir", str(data)]) == 0
    assert main(["calibrate", *args_common, "--method", "ols-k",
                 "--num-basis", "14", "--model-out", str(out / "model.json"),
                 "--curves-out", str(out / "curves.csv")]) == 0
    assert main(["jackknife", *args_common, "--method", "ols-k",
                 "--num-basis", "14", "--out", str(out / "s.csv")]) == 0
    assert main(["predict", "--model", str(out / "model.json"),
                 "--spectra", str(data / "pred_spectra.csv"),
                 "--s-file", str(out / "s.csv"),
                 "--out", str(out / "predictions.csv")]) == 0
    assert main(["sep", "--truth", str(data / "pred_concentrations.csv"),
                 "--predictions", str(out / "predictions.csv"),
                 "--out", str(out / "sep.csv")]) == 0
    names = ["model.json", "curves.csv", "s.csv", "predictions.csv", "sep.csv"]
    return {name: (out / name).read_bytes() for name in names}


def test_criterion_10_cli_pipeline_deterministic(tmp_path):
    with criterion(10, "end-to-end CLI determinism", 60.0):
        first_dir = tmp_path / "run1"
        second_dir = tmp_path / "run2"
        first_dir.mkdir()
        second_dir.mkdir()
        first = _run_pipeline(first_dir)
        second = _run_pipeline(second_dir)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

        # model file round-trips through save -> load -> save
        from specal import io

        model = io.load_model(first_dir / "out" / "model.json")
        resaved = tmp_path / "resaved.json"
        io.save_model(model, resaved)
        assert resaved.read_bytes() == first["model.json"]
