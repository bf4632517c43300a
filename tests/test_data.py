import numpy as np
import pytest

from bayes_screen.data import (
    GHG,
    GZS,
    Dataset,
    FixedC,
    PriorConfig,
    SamplerState,
    ValidationError,
    check_model,
    derive_ground_truth,
    model_label,
)
from bayes_screen.exact import log_unnorm_posterior, log_unnorm_posterior_g
from bayes_screen.gibbs import ChainOutput
from bayes_screen.inference import credible_intervals


class TestModelIndicator:
    """The model indicator gamma as the package holds it: a sorted tuple of
    0-based indices, checked by ``check_model`` and labelled by ``model_label``."""

    def test_sorts_indices(self):
        g = check_model(np.array([3, 1, 2]), p=5)
        assert g == (1, 2, 3)
        assert all(type(j) is int for j in g)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            check_model((1, 1), p=5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            check_model((5,), p=5)
        with pytest.raises(ValidationError, match="out of range"):
            check_model((-1,), p=5)

    def test_label_is_one_based(self):
        assert model_label((0, 4)) == "1+5"
        assert model_label(()) == ""


def public_model_callers():
    """Each public function that takes a model from its caller, as a
    function of that model on a p = 5 dataset."""
    d = Dataset(np.arange(6.0), np.random.default_rng(1).standard_normal((6, 5)))
    prior = PriorConfig(m_n=3, c_prior=GZS(a=1.0, b_n=1.0))
    out = ChainOutput(model_counts={(1, 3): 3, (): 1}, sigma_sq_draws=np.ones(4), c_draws=np.ones(4),
                      t_n_draws=np.ones(4, dtype=np.int64), beta_draws=None, mh_accept_rate=None,
                      c_update_skips=0, seed=0, p=5, n_kept=4)
    return {
        "log_unnorm_posterior": lambda g: log_unnorm_posterior(g, 2.0, d, prior, t_n=3),
        "log_unnorm_posterior_g": lambda g: log_unnorm_posterior_g(g, d, prior, t_n=3, n_nodes=16),
        "credible_intervals": lambda g: credible_intervals(g, 2.0, 1.0, d, 0.05).entries,
        "visit_frequency": out.visit_frequency,
    }


@pytest.mark.parametrize("name", sorted(public_model_callers()))
class TestModelCallers:
    def test_unsorted_model_is_sorted(self, name):
        call = public_model_callers()[name]
        assert call((3, 1)) == call((1, 3))

    def test_duplicates_rejected(self, name):
        with pytest.raises(ValidationError, match="duplicate"):
            public_model_callers()[name]((1, 1))

    @pytest.mark.parametrize("gamma", [(5,), (-1,), (0, 7)])
    def test_out_of_range_rejected(self, name, gamma):
        with pytest.raises(ValidationError, match="out of range"):
            public_model_callers()[name](gamma)

    @pytest.mark.parametrize("gamma", [(1.5,), (1.0,), [True], (np.float64(2.0),), (np.bool_(True),), ("1",), "13"],
                             ids=["float", "integral-float", "bool", "np-float", "np-bool", "str", "string"])
    def test_non_integer_index_rejected(self, name, gamma):
        with pytest.raises(ValidationError, match="not an integer"):
            public_model_callers()[name](gamma)


class TestDataset:
    def test_from_arrays_fortran_order(self):
        d = Dataset([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
        assert d.x.flags.f_contiguous
        assert (d.n, d.p) == (2, 2)

    def test_rejects_nonfinite_y(self):
        with pytest.raises(ValidationError, match="non-finite"):
            Dataset([np.nan, 1.0], [[1.0], [1.0]])

    def test_rejects_zero_column(self):
        with pytest.raises(ValidationError, match="zero-norm column 2"):
            Dataset([1.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])

    def test_validate_reports_all_problems(self):
        with pytest.raises(ValidationError) as err:
            Dataset(np.array([1.0]), np.zeros((2, 1)))
        assert "mismatch" in str(err.value) and "zero-norm column 1" in str(err.value)

    @pytest.mark.parametrize("shape", [(3,), (3, 0), (0, 2), (2, 2, 2)])
    def test_rejects_x_without_rows_or_columns(self, shape):
        with pytest.raises(ValidationError, match="2-d with at least one row and one column"):
            Dataset(np.ones(3), np.ones(shape))

    def test_keeps_fortran_float64_input_without_copy(self):
        x = np.asfortranarray(np.random.default_rng(2).standard_normal((4, 3)))
        y = np.arange(4.0)
        d = Dataset(y, x)
        assert np.shares_memory(d.x, x) and np.shares_memory(d.y, y)


class TestGroundTruth:
    def test_derived_fields(self):
        t = derive_ground_truth([0.0, 3.0, -0.5, 0.0], 2.0)
        assert t.gamma0 == (1, 2)
        assert all(type(j) is int for j in t.gamma0)
        assert t.s_n == 2
        assert t.k_n == pytest.approx(9.25)
        assert t.psi_n == pytest.approx(0.5)
        assert t.sigma0_sq == 2.0

    def test_empty_truth_warns(self):
        with pytest.warns(UserWarning, match="true model empty"):
            t = derive_ground_truth([0.0, 0.0], 1.0)
        assert t.psi_n is None and t.s_n == 0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            derive_ground_truth([1.0], 0.0)


class TestPriors:
    def test_fixed_c_positive(self):
        with pytest.raises(ValidationError):
            FixedC(0.0)
        with pytest.raises(ValidationError):
            FixedC(float("inf"))

    def test_gzs_validation(self):
        with pytest.raises(ValidationError):
            GZS(a=-1.0)
        with pytest.raises(ValidationError):
            GZS(b_n=0.0)

    def test_gzs_log_scale(self):
        assert GZS(b_n=3.0).log_scale(10) == pytest.approx(3.0 * np.log(10))

    def test_gzs_overflow_guard(self):
        with pytest.raises(ValidationError, match="overflow"):
            GZS(b_n=400.0).log_scale(10)

    def test_ghg_alpha_n(self):
        assert GHG(d=2.0).alpha_n(10) == pytest.approx(101.0)

    @pytest.mark.parametrize("make", [
        lambda: GZS(a=float("nan")),
        lambda: GZS(b_n=float("nan")),
        lambda: GHG(d=float("nan")),
        lambda: GHG(b=float("nan")),
        lambda: PriorConfig(nu=float("nan")),
    ], ids=["gzs-a", "gzs-b_n", "ghg-d", "ghg-b", "nu"])
    def test_nan_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_prior_config_bounds(self):
        with pytest.raises(ValidationError):
            PriorConfig(nu=0.0)
        with pytest.raises(ValidationError):
            PriorConfig(m_n=0)

    def test_validate_for_caps_m_n(self):
        d = Dataset(np.ones(3), np.eye(3))
        with pytest.raises(ValidationError, match="exceeds"):
            PriorConfig(m_n=4).validate_for(d.n, d.p)

    def test_default_m_n(self):
        assert PriorConfig.default_m_n(100) == 50
        assert PriorConfig.default_m_n(1) == 1


class TestSamplerState:
    def _state(self, d):
        return SamplerState(
            beta=np.zeros(d.p),
            gamma_mask=np.zeros(d.p, dtype=np.uint8),
            sigma_sq=1.0,
            t_n=1,
            c=1.0,
            residual=d.y.copy(),
        )

    def test_invariants_hold_at_null(self):
        d = Dataset(np.ones(3), np.eye(3))
        self._state(d).check_invariants(d, m_n=1)

    def test_support_mismatch_detected(self):
        d = Dataset(np.ones(3), np.eye(3))
        s = self._state(d)
        s.beta[0] = 1.0
        with pytest.raises(AssertionError, match="support"):
            s.check_invariants(d, m_n=1)

    def test_residual_drift_detected(self):
        d = Dataset(np.ones(3), np.eye(3))
        s = self._state(d)
        s.residual += 1.0
        with pytest.raises(AssertionError, match="drifted"):
            s.check_invariants(d, m_n=1)

    def test_gamma_is_sorted_tuple_of_python_ints(self):
        d = Dataset(np.ones(5), np.eye(5))
        s = SamplerState(beta=np.zeros(5), gamma_mask=np.array([0, 1, 0, 1, 1], dtype=np.uint8),
                         sigma_sq=1.0, t_n=3, c=1.0, residual=d.y.copy())
        assert s.gamma == (1, 3, 4)
        assert all(type(j) is int for j in s.gamma)
        s.gamma_mask[:] = 0
        assert s.gamma == ()

    def test_copy_is_deep(self):
        d = Dataset(np.ones(3), np.eye(3))
        s = self._state(d)
        s2 = s.copy()
        s2.beta[0] = 9.0
        assert s.beta[0] == 0.0


def test_precomputed_matches_direct():
    rngen = np.random.default_rng(0)
    x = rngen.standard_normal((7, 4))
    y = rngen.standard_normal(7)
    d = Dataset(y, x)
    np.testing.assert_allclose(d.col_sq_norms, (d.x**2).sum(axis=0), rtol=1e-14)
    assert d.yty == pytest.approx(float(d.y @ d.y), rel=1e-14)
