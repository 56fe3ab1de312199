import numpy as np
import pytest

from precboot import SymMatrix, estimate_omega, estimate_v, precision
from precboot.core import IndexSet
from precboot.errors import DegenerateResiduals, InvalidDimension, \
    InvalidInput
from precboot.nodewise import NodewiseFit
from precboot.precision import scores_for


def make_fit(residuals, alpha=None):
    residuals = np.asarray(residuals, dtype=np.float64)
    p = residuals.shape[1]
    if alpha is None:
        alpha = -np.eye(p)
    return NodewiseFit(alpha=np.asarray(alpha, dtype=np.float64),
                       lambdas=np.full(p, 0.1), residuals=residuals,
                       iterations=np.ones(p, dtype=np.int64))


class TestEstimateV:
    def test_diagonal_is_mean_square(self):
        fit = make_fit(np.array([[1.0, 2.0], [-1.0, 0.0]]))
        v = estimate_v(fit)
        assert v[0, 0] == 1.0
        assert v[1, 1] == 2.0

    def test_offdiag_zero_alpha(self):
        fit = make_fit(np.array([[1.0, 1.0], [-1.0, 1.0]]))
        assert estimate_v(fit)[0, 1] == 0.0

    def test_offdiag_with_alpha_correction(self):
        alpha = np.array([[-1.0, 0.5], [0.0, -1.0]])
        fit = make_fit(np.array([[1.0, 1.0], [1.0, 1.0]]), alpha)
        # -(1/2)(2 + 0.5*2 + 0) = -1.5
        assert estimate_v(fit)[0, 1] == pytest.approx(-1.5, abs=1e-15)

    def test_symmetry(self, rng):
        eps = rng.standard_normal((30, 5))
        alpha = rng.standard_normal((5, 5))
        np.fill_diagonal(alpha, -1.0)
        v = estimate_v(make_fit(eps, alpha))
        assert np.array_equal(v.values, v.values.T)

    def test_zero_residuals_rejected(self):
        fit = make_fit(np.zeros((4, 2)))
        with pytest.raises(DegenerateResiduals):
            estimate_v(fit)


class TestEstimateOmega:
    def test_arithmetic(self):
        omega = estimate_omega(SymMatrix(np.array([[2.0, 0.5], [0.5, 2.0]])))
        np.testing.assert_allclose(omega.values,
                                   [[0.5, 0.125], [0.125, 0.5]], atol=1e-15)

    def test_identity(self):
        omega = estimate_omega(SymMatrix(np.eye(3)))
        np.testing.assert_array_equal(omega.values, np.eye(3))

    def test_diag_is_reciprocal(self, rng):
        eps = rng.standard_normal((40, 4))
        v = estimate_v(make_fit(eps))
        omega = estimate_omega(v)
        np.testing.assert_allclose(omega.diagonal(), 1.0 / v.diagonal(),
                                   rtol=1e-14)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(DegenerateResiduals):
            estimate_omega(SymMatrix(np.array([[0.0, 0.0], [0.0, 1.0]])))


def eta_scores(fit, v, S):
    """All n x r scores at once."""
    return scores_for(fit, v, S)[:, :]


class TestEtaScores:
    def test_diagonal_pair_mean_zero(self, rng):
        eps = rng.standard_normal((25, 3))
        fit = make_fit(eps)
        v = estimate_v(fit)
        eta = eta_scores(fit, v, IndexSet(np.array([[2, 2]])))
        assert abs(eta[:, 0].mean()) < 1e-14

    def test_hand_evaluated_column(self):
        eps = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        fit = make_fit(eps)
        v = SymMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]))
        eta = eta_scores(fit, v, IndexSet(np.array([[1, 2]])))
        np.testing.assert_allclose(eta[:, 0], [-0.2, -0.2, -1.2], atol=1e-15)

    def test_zero_residuals_constant_columns(self):
        fit = make_fit(np.zeros((5, 2)))
        v = SymMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
        eta = eta_scores(fit, v, IndexSet(np.array([[1, 2], [2, 1]])))
        np.testing.assert_array_equal(eta, -0.3 * np.ones((5, 2)))


class TestLazyPath:
    def test_lazy_matches_dense(self, rng, monkeypatch):
        # a read multiplies its second factor in a piece of columns at a
        # time; at pieces of 3, the slice 1:9 and the 7 indices span several
        # pieces and a partial one
        eps = rng.standard_normal((20, 6))
        fit = make_fit(eps)
        v = estimate_v(fit)
        S = IndexSet(np.array([[1, 2], [3, 4], [5, 6], [2, 5], [6, 1], [4, 2],
                               [1, 3], [5, 4], [2, 6], [3, 1], [6, 5]]))
        rows, cols = S.rows(), S.cols()
        dense = eps[:, rows] * eps[:, cols] - v.values[rows, cols]
        eps = eps.copy()
        lazy = scores_for(fit, v, S)
        assert lazy.shape == dense.shape
        for piece in (precision._PIECE_COLS, 3):
            monkeypatch.setattr(precision, "_PIECE_COLS", piece)
            for key in (slice(1, 3), [3, 0], slice(1, 9),
                        [10, 0, 3, 3, 7, 2, 9], slice(None)):
                np.testing.assert_array_equal(lazy[:, key], dense[:, key])
        # reading the scores leaves the residuals they are formed from alone
        np.testing.assert_array_equal(fit.residuals, eps)

    @pytest.mark.parametrize("key", [(slice(0, 2), slice(None)),
                                     (slice(None), 0), 0,
                                     (np.arange(20), slice(0, 3)), 3,
                                     slice(0, 2), (slice(None),),
                                     (slice(None), slice(0, 2), 0)])
    def test_only_whole_columns_are_read(self, rng, key):
        fit = make_fit(rng.standard_normal((20, 4)))
        eta = scores_for(fit, estimate_v(fit), IndexSet(np.array([[1, 2]])))
        with pytest.raises(InvalidInput, match=r"eta\[:, cols\]"):
            eta[key]

    def test_pair_above_p_is_a_typed_error(self, rng):
        from precboot import Dataset, fit_pipeline

        pipe = fit_pipeline(Dataset(rng.standard_normal((40, 6))))
        S = IndexSet(np.array([[1, 2], [1, 9], [7, 3]]))
        for read in (pipe.omega_on, pipe.scores):
            with pytest.raises(InvalidDimension,
                               match=r"pair \(1, 9\) is outside 1\.\.6"):
                read(S)


class TestOracleConsistency:
    def test_true_alpha_recovers_omega(self, rng):
        # moderate-n version of the oracle identity; the full-scale run is in
        # the acceptance suite
        omega = np.array([
            [1.0, 0.4, 0.0, 0.2],
            [0.4, 1.0, 0.3, 0.0],
            [0.0, 0.3, 1.0, 0.1],
            [0.2, 0.0, 0.1, 1.0],
        ])
        sigma = np.linalg.inv(omega)
        n = 20000
        y = rng.multivariate_normal(np.zeros(4), sigma, size=n)
        alpha = -omega / np.diagonal(omega)[:, None]
        np.fill_diagonal(alpha, -1.0)
        fit = make_fit(-(y @ alpha.T), alpha)
        est = estimate_omega(estimate_v(fit)).values
        # batch-means Monte Carlo standard error, 40 batches
        batches = np.array_split(np.arange(n), 40)
        per_batch = []
        for idx in batches:
            bfit = make_fit(-(y[idx] @ alpha.T), alpha)
            per_batch.append(estimate_omega(estimate_v(bfit)).values)
        se = np.std(per_batch, axis=0, ddof=1) / np.sqrt(len(batches))
        assert np.all(np.abs(est - omega) <= 4.0 * se + 1e-12)
