import numpy as np
import numpy.testing as npt
import pytest

from specal.basis import BasisDesign, design_matrix, make_knots
from specal.calibrate import fit_ols
from specal.errors import CollinearConcentrationsError, ShapeError
from specal.model import (
    AggregatedDesign,
    CalibrationModel,
    ConcentrationMatrix,
    SpectraSet,
    assemble_design,
    closure_total,
)

from oracles import dense_system


def make_dataset(rng, num_samples=6, num_basis=8, num_analytes=2,
                 sum_zero=False, closed=False, noise=0.0):
    grid = np.linspace(0.0, 10.0, 41)
    kv = make_knots((0.0, 10.0), num_basis)
    b = design_matrix(kv, grid).dense()
    coef = rng.standard_normal((num_analytes + 1, num_basis))
    if sum_zero:
        coef[1:] -= coef[1:].mean(axis=0)
    if closed:
        y = rng.dirichlet(np.ones(num_analytes), num_samples)
    else:
        y = rng.uniform(0.1, 2.0, (num_samples, num_analytes))
    w = coef[0] @ b.T + y @ (coef[1:] @ b.T)
    if noise:
        w = w + noise * rng.standard_normal(w.shape)
    spectra = SpectraSet(grid=grid, absorbance=w)
    conc = ConcentrationMatrix(values=y)
    return spectra, conc, kv, coef


class TestContainers:
    def test_spectra_validation(self):
        with pytest.raises(ShapeError):
            SpectraSet(grid=np.array([1.0, 1.0, 2.0]), absorbance=np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            SpectraSet(grid=np.array([1.0, 2.0]), absorbance=np.array([[1.0, np.nan]]))
        with pytest.raises(ShapeError):
            SpectraSet(grid=np.array([1.0, 2.0, 3.0]), absorbance=np.zeros((2, 2)))

    @pytest.mark.parametrize("build, held", [
        (lambda w: SpectraSet(grid=np.arange(3.0), absorbance=w),
         lambda made: made.absorbance),
        (lambda w: ConcentrationMatrix(values=w), lambda made: made.values),
    ], ids=["spectra", "concentrations"])
    @pytest.mark.parametrize("source", [
        lambda base: base,
        lambda base: base[:, :],
        lambda base: np.lib.stride_tricks.as_strided(base, writeable=False),
    ], ids=["writable", "writable-view", "read-only-view"])
    def test_containers_copy_what_the_caller_can_change(self, build, held,
                                                        source):
        base = np.full((2, 3), 0.25)
        made = build(source(base))
        base[0, 0] = 0.5
        assert held(made)[0, 0] == 0.25
        assert not held(made).flags.writeable

    def test_read_only_array_owning_its_data_is_adopted(self):
        w = np.full((2, 3), 0.25)
        w.flags.writeable = False
        assert SpectraSet(grid=np.arange(3.0), absorbance=w).absorbance is w
        assert ConcentrationMatrix(values=w).values is w

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_smoothing_parameter_is_refused(self, lam):
        kv = make_knots((0.0, 1.0), 6)
        with pytest.raises(ShapeError, match="finite and nonnegative"):
            CalibrationModel(basis=kv, coefficients=np.ones((2, 6)),
                             method="OLS-SS", lam=lam)

    def test_negative_concentrations_warn_but_load(self):
        with pytest.warns(UserWarning) as record:
            conc = ConcentrationMatrix(values=np.array([[0.2, -0.1], [0.4, 0.3]]))
        assert conc.num_analytes == 2
        # The warning points at the caller, not the generated __init__.
        assert record[0].filename == __file__


class TestAssembleDesign:
    def test_hand_expanded_kronecker(self):
        # One sample, two wavelengths, one analyte, identity basis block.
        spectra = SpectraSet(grid=np.array([0.0, 1.0]),
                             absorbance=np.array([[1.5, 2.5]]))
        conc = ConcentrationMatrix(values=np.array([[0.5]]))
        design = AggregatedDesign(
            b=BasisDesign(np.eye(2), np.zeros(2, dtype=int), 2),
            conc_aug=np.array([[1.0, 0.5], [0.0, 1.0]]),
            spectra=spectra,
            concentrations=conc,
            basis=make_knots((0.0, 1.0), 4),
        )
        x_plus, w_plus = dense_system(design)
        npt.assert_array_equal(x_plus, [
            [1, 0, 0.5, 0],
            [0, 1, 0, 0.5],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ])
        npt.assert_array_equal(w_plus, [1.5, 2.5, 0.0, 0.0])

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(1)
        grid = np.arange(350.0, 751.0, 5.0)
        kv = make_knots((350.0, 750.0), 14)
        spectra = SpectraSet(grid=grid, absorbance=rng.standard_normal((20, 81)))
        conc = ConcentrationMatrix(values=rng.dirichlet(np.ones(3), 20))
        x_plus, w_plus = dense_system(assemble_design(spectra, conc, kv))
        assert x_plus.shape == (1701, 56)
        assert w_plus.shape == (1701,)
        assert np.all(w_plus[-81:] == 0)

    def test_kronecker_identity(self):
        rng = np.random.default_rng(2)
        spectra, conc, kv, _ = make_dataset(rng)
        design = assemble_design(spectra, conc, kv)
        coef = rng.standard_normal((conc.num_analytes + 1, kv.num_basis))
        via_dense = dense_system(design)[0] @ coef.ravel()
        per_sample = design.b.evaluate(design.conc_aug @ coef)
        npt.assert_allclose(via_dense, per_sample.ravel(), atol=1e-12)

    def test_duplicate_rows_raise_collinear(self):
        grid = np.linspace(0.0, 1.0, 12)
        spectra = SpectraSet(grid=grid, absorbance=np.ones((2, 12)))
        conc = ConcentrationMatrix(values=np.array([[0.3, 0.4], [0.3, 0.4]]))
        with pytest.raises(CollinearConcentrationsError):
            assemble_design(spectra, conc, make_knots((0.0, 1.0), 4))

    def test_dependent_analyte_columns_raise_collinear(self):
        rng = np.random.default_rng(20)
        grid = np.linspace(0.0, 1.0, 12)
        col = rng.uniform(0.1, 1.0, 5)
        conc = ConcentrationMatrix(values=np.column_stack([col, 2.0 * col]))
        spectra = SpectraSet(grid=grid, absorbance=rng.standard_normal((5, 12)))
        with pytest.raises(CollinearConcentrationsError):
            assemble_design(spectra, conc, make_knots((0.0, 1.0), 4))

    def test_closed_rows_are_accepted(self):
        # Rows on the simplex make (1 | Y) itself collinear; the constraint
        # row restores identifiability, so assembly must accept them.
        rng = np.random.default_rng(3)
        spectra, conc, kv, _ = make_dataset(rng, closed=True)
        design = assemble_design(spectra, conc, kv)
        assert np.linalg.matrix_rank(design.conc_aug) == conc.num_analytes + 1

    def test_closure_total_detects_any_constant_row_sum(self):
        # Fractions and their percent twin share one closure rule; sums
        # that miss the round total only by rounding report it exactly.
        rng = np.random.default_rng(5)
        y = rng.dirichlet(np.ones(3), 12)
        assert closure_total(y) == 1.0
        assert closure_total(100.0 * y) == 100.0
        assert closure_total(0.35 * y) == 0.35
        assert closure_total(y * (1.0 + 1e-12)) == 1.0
        assert closure_total(np.round(y, 6)) == 1.0
        assert closure_total(np.round(100.0 * y, 4)) == 100.0
        shifted = y.copy()
        shifted[0] *= 1.0 + 1e-6
        assert closure_total(shifted) == 1.0
        assert closure_total(100.0 * shifted) == 100.0
        shifted = y.copy()
        shifted[0] *= 1.0 + 1e-4
        assert closure_total(shifted) is None
        assert closure_total(100.0 * shifted) is None
        assert closure_total(rng.uniform(0.1, 2.0, (6, 2))) is None
        assert closure_total(np.zeros((4, 0))) is None

    def test_design_records_the_closure_it_was_built_for(self):
        rng = np.random.default_rng(4)
        for closed, total in ((True, 1.0), (False, None)):
            spectra, conc, kv, _ = make_dataset(rng, closed=closed)
            design = assemble_design(spectra, conc, kv)
            assert design.closed_total == total
            npt.assert_array_equal(design.conc_aug[-1, 1:], float(closed))
            assert fit_ols(design).closed_total == total

    def test_sample_count_mismatch(self):
        rng = np.random.default_rng(4)
        spectra, conc, kv, _ = make_dataset(rng)
        short = ConcentrationMatrix(values=conc.values[:-1])
        with pytest.raises(ShapeError):
            assemble_design(spectra, short, kv)

    def test_constraint_rows_add_exactly_sum_penalty(self):
        # Closed rows, so the block is present.
        rng = np.random.default_rng(5)
        spectra, conc, kv, _ = make_dataset(rng, closed=True)
        design = assemble_design(spectra, conc, kv)
        coef = rng.standard_normal((conc.num_analytes + 1, kv.num_basis))
        x_plus, w_plus = dense_system(design)
        resid = w_plus - x_plus @ coef.ravel()
        data_part = np.sum(
            (spectra.absorbance - design.b.evaluate(design.conc_aug[:-1] @ coef)) ** 2
        )
        sum_curve = design.b.evaluate(coef[1:].sum(axis=0))
        npt.assert_allclose(np.sum(resid ** 2), data_part + np.sum(sum_curve ** 2),
                            rtol=1e-12)


def predicted_spectrum(model, y, grid):
    """Baseline plus the concentration-weighted analyte curves on ``grid``."""
    curves = model.curve_values(grid)
    return curves[0] + y @ curves[1:]


class TestCurveValues:
    def test_zero_concentrations_return_baseline(self):
        rng = np.random.default_rng(6)
        spectra, conc, kv, coef = make_dataset(rng, sum_zero=True)
        model = fit_ols(assemble_design(spectra, conc, kv))
        baseline = model.curve_values(spectra.grid)[0]
        npt.assert_allclose(baseline, coef[0] @ design_matrix(kv, spectra.grid).dense().T,
                            atol=1e-10)

    def test_reproduces_training_spectrum(self):
        rng = np.random.default_rng(7)
        spectra, conc, kv, _ = make_dataset(rng, sum_zero=True)
        model = fit_ols(assemble_design(spectra, conc, kv))
        fitted = predicted_spectrum(model, conc.values[0], spectra.grid)
        npt.assert_allclose(fitted, spectra.absorbance[0], atol=1e-8)

    def test_affine_in_concentrations(self):
        rng = np.random.default_rng(8)
        spectra, conc, kv, _ = make_dataset(rng)
        model = fit_ols(assemble_design(spectra, conc, kv))
        grid = spectra.grid
        y1, y2 = np.array([0.2, 0.5]), np.array([0.7, 0.1])
        zero = predicted_spectrum(model, np.zeros(2), grid)
        lhs = predicted_spectrum(model, y1 + y2, grid) - zero
        rhs = ((predicted_spectrum(model, y1, grid) - zero)
               + (predicted_spectrum(model, y2, grid) - zero))
        npt.assert_allclose(lhs, rhs, atol=1e-12)


class TestConstraintResidual:
    def test_zero_sum_coefficients_give_zero(self):
        kv = make_knots((0.0, 1.0), 6)
        coef = np.vstack([np.ones(6), np.linspace(0, 1, 6), -np.linspace(0, 1, 6)])
        model = CalibrationModel(basis=kv, coefficients=coef, method="OLS-K")
        resid = model.curve_values(np.linspace(0, 1, 9))[1:].sum(axis=0)
        npt.assert_allclose(resid, 0.0, atol=1e-14)

    def test_noiseless_constraint_consistent_fit(self):
        rng = np.random.default_rng(10)
        spectra, conc, kv, _ = make_dataset(rng, sum_zero=True)
        model = fit_ols(assemble_design(spectra, conc, kv))
        resid = model.curve_values(spectra.grid)[1:].sum(axis=0)
        assert np.abs(resid).max() < 1e-8
        assert model.diagnostics.constraint_max_abs < 1e-8


def test_every_public_name_resolves():
    import specal

    for name in specal.__all__:
        assert getattr(specal, name, None) is not None, name
