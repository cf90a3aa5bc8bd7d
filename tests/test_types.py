from dataclasses import fields

import numpy as np
import pytest

import oscluster
from oscluster import SolveDiagnostics, SolverConfig
from oscluster.relaxed import solve_monitored
from oscluster.types import (
    MU_GROWTH,
    MU_MAX,
    apply_difference_adjoint,
    as_coefficient_matrix,
    as_data_matrix,
    column_differences,
    difference_norm_squared,
    frobenius_distance,
    operator_norm_squared,
    zero_padded,
)

from helpers import build_difference_operator


class TestDifferenceOperator:
    def test_two_samples(self):
        r = build_difference_operator(2)
        assert np.array_equal(r, np.array([[-1.0], [1.0]]))

    def test_identity_columns(self):
        r = build_difference_operator(3)
        expected = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
        assert np.array_equal(np.eye(3) @ r, expected)

    def test_equal_columns_vanish(self):
        z = np.tile(np.arange(4.0)[:, None], (1, 5))
        assert np.array_equal(z @ build_difference_operator(5), np.zeros((4, 4)))

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_difference_operator(1)

    def test_columns_are_consecutive_differences(self):
        rng = np.random.default_rng(3)
        for n in (2, 7, 50):
            z = rng.standard_normal((6, n))
            prod = z @ build_difference_operator(n)
            for i in range(n - 1):
                assert np.array_equal(prod[:, i], z[:, i + 1] - z[:, i])

    def test_structural_product_matches_dense(self):
        # The flat passes over the zero-padded N x N layout give bitwise the
        # dense products with R: Z R in the first N - 1 columns, and M R^T
        # from M in the first N - 1 columns of a buffer whose pad is +0.0.
        for n in (2, 3, 7, 100):
            rng = np.random.default_rng(n)
            r = build_difference_operator(n)
            z = rng.standard_normal((n, n))
            zr = column_differences(z)
            assert zr.shape == (n, n)
            assert np.array_equal(zr[:, :-1], z @ r)
            m = rng.standard_normal((n, n - 1))
            padded = zero_padded(m)
            assert np.array_equal(apply_difference_adjoint(padded), m @ r.T)
            out = np.empty((n, n))
            assert apply_difference_adjoint(padded, out=out) is out
            assert np.array_equal(out, m @ r.T)

    @pytest.mark.parametrize("n", [2, 3, 7, 100])
    def test_pad_is_positive_zero_over_garbage(self, n):
        z = np.random.default_rng(n).standard_normal((n, n))
        out = np.full((n, n), np.nan)
        out[:, -1] = -0.0
        assert column_differences(z, out=out) is out
        assert np.all(out[:, -1] == 0.0) and not np.signbit(out[:, -1]).any()
        assert np.isfinite(out).all()

    def test_adjoint_of_positive_zero_is_positive_zero(self):
        # 0.0 - m, not -m: a +0.0 in M's first column stays +0.0 in the
        # product's first column, as in the strided two-pass form it replaces.
        m = zero_padded(np.random.default_rng(1).standard_normal((6, 5)))
        m[:, 0] = 0.0
        out = apply_difference_adjoint(m, out=np.full((6, 6), np.nan))
        assert np.all(out[:, 0] == 0.0) and not np.signbit(out[:, 0]).any()

    def test_non_contiguous_or_misshapen_out_is_refused(self):
        z = np.ones((4, 4))
        for out in (np.empty((4, 8))[:, ::2], np.empty((4, 3)), np.empty((4, 4), order="F")):
            with pytest.raises(ValueError, match="C-contiguous"):
                column_differences(z, out=out)
            with pytest.raises(ValueError, match="C-contiguous"):
                apply_difference_adjoint(z, out=out)

    def test_strided_input_reads_its_values(self):
        # A Fortran-ordered or strided Z is read by value.
        rng = np.random.default_rng(2)
        z = rng.standard_normal((7, 14))
        r = build_difference_operator(7)
        for view in (np.asfortranarray(z[:, :7]), z[:, ::2]):
            assert np.array_equal(column_differences(view)[:, :-1], view @ r)

    def test_zero_padded_copies_and_leaves_the_block(self):
        block = np.arange(12).reshape(3, 4)
        padded = zero_padded(block)
        assert padded.shape == (3, 5) and padded.dtype == float and padded.flags.c_contiguous
        assert np.array_equal(padded[:, :-1], block) and not padded[:, -1].view(np.int64).any()
        assert np.array_equal(block, np.arange(12).reshape(3, 4))


class TestDifferenceNormSquared:
    @pytest.mark.parametrize("n", [*range(2, 65), 1600])
    def test_closed_form_matches_svd(self, n):
        want = np.linalg.norm(build_difference_operator(n), 2) ** 2
        assert difference_norm_squared(n) == pytest.approx(want, rel=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            difference_norm_squared(1)


class TestFrobeniusDistance:
    def test_matches_norm_of_difference(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 7, 3))
        scratch = np.empty(30)
        assert frobenius_distance(a, b, scratch) == np.linalg.norm(a - b)

    def test_scratch_of_another_shape(self):
        # osc-exact measures its N x N coupling steps and its D x N multiplier
        # step in one flat scratch of max(D, N) * N entries.
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 5, 4))
        assert frobenius_distance(a, b, np.empty((5, 5))) == np.linalg.norm(a - b)

    def test_scratch_too_small(self):
        with pytest.raises(ValueError, match="scratch"):
            frobenius_distance(np.ones((4, 3)), np.zeros((4, 3)), np.empty(9))


class TestOperatorNormSquared:
    def test_identity(self):
        assert operator_norm_squared(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert operator_norm_squared(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-10)

    def test_difference_operator_matches_svd(self):
        r = build_difference_operator(10)
        want = float(np.linalg.svd(r, compute_uv=False)[0] ** 2)
        assert operator_norm_squared(r) == pytest.approx(want, rel=1e-9)

    def test_upper_bounds_rayleigh_quotients(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 12))
        norm2 = operator_norm_squared(m)
        for _ in range(100):
            v = rng.standard_normal(12)
            v /= np.linalg.norm(v)
            assert norm2 + 1e-9 >= float(np.sum((m @ v) ** 2))

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            operator_norm_squared(np.empty((0, 3)))

    def test_zero_matrix(self):
        assert operator_norm_squared(np.zeros((4, 4))) == 0.0


class TestValidators:
    def test_data_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.arange(5.0))

    def test_data_matrix_rejects_single_column(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.ones((3, 1)))

    def test_data_matrix_rejects_nan(self):
        bad = np.ones((2, 3))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            as_data_matrix(bad)

    def test_coefficient_matrix_square_only(self):
        with pytest.raises(ValueError):
            as_coefficient_matrix(np.ones((2, 3)))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eps == 1e-4
        assert cfg.max_iter == 2000
        assert (MU_GROWTH, MU_MAX) == (1.1, 1e10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": -0.1},
            {"lambda2": -1.0},
            {"mu0": 0.0},
            {"mu0": 2e10},  # above the cap MU_MAX
            {"eps": 0.0},
            {"eps": -1e-4},
            {"max_iter": 0},
            {"mu0": -1.0},
            # Non-finite numbers, which the range checks above let through.
            {"eps": float("nan")},
            {"lambda1": float("nan")},
            {"mu0": float("nan")},
            {"lambda2": float("inf")},
            {"max_iter": 2.5},
            {"max_iter": 100.0},
            {"max_iter": True},
            {"eps": float("inf")},
            {"lambda1": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("lambda1", "0.2"),
            ("lambda1", None),
            ("lambda1", True),
            ("mu0", [1.0]),
            ("eps", False),
            ("diag_zero", "false"),
            ("diag_zero", 1),
            ("diag_zero", None),
            ("diag_zero", np.True_),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    def test_accepts_numpy_numbers(self):
        cfg = SolverConfig(lambda1=np.float64(0.2), max_iter=np.int64(10))
        assert (cfg.lambda1, cfg.max_iter) == (0.2, 10)

    def test_six_settings(self):
        # The J step's weight is the constant admm.ETA_J, each solver works
        # out its own eta_z, the descent monitor and its additive schedule
        # are relaxed.solve_monitored, the penalty schedule is the constants
        # MU_GROWTH and MU_MAX, and one eps stops every solve: none of the
        # removed names is a field.
        names = [f.name for f in fields(SolverConfig)]
        assert names == ["lambda1", "lambda2", "mu0", "eps", "max_iter", "diag_zero"]
        removed = (
            ("eta_j", 1.02), ("eta_z", 5.0), ("monitor_lyapunov", True),
            ("mu_schedule", "additive"), ("gamma0", 1.5), ("mu_max", 1e9), ("eps1", 1e-6),
            ("eps2", 1e-6),
        )
        for name, value in removed:
            with pytest.raises(TypeError, match=name):
                SolverConfig(**{name: value})

    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.lambda1 = 0.5

    @pytest.mark.parametrize("config", [{}, {"lambda1": 0.1}, "x"], ids=["empty", "dict", "str"])
    @pytest.mark.parametrize(
        "solve",
        [
            oscluster.solve_relaxed,
            solve_monitored,
            oscluster.solve_exact,
            oscluster.ssc_solve,
            oscluster.spatsc_solve,
            oscluster.cluster_sequential,
        ],
        ids=lambda solve: solve.__name__,
    )
    def test_every_entry_point_refuses_a_config_of_another_type(self, solve, config):
        # One boundary, one error: a ValueError naming the type, raised
        # before any solve.
        x = np.eye(3, 6)
        with pytest.raises(ValueError, match=f"SolverConfig or None, got {type(config).__name__}"):
            solve(x, config=config)


class TestDiagnosticsShape:
    def test_history_lengths_match_iterations(self, clean_sweep):
        d = clean_sweep[0]["diag_relaxed"]
        assert isinstance(d, SolveDiagnostics)
        assert len(d.feasibility_history) == d.iterations
        assert len(d.change_history) == d.iterations
        assert len(d.mu_history) == d.iterations

    def test_mu_history_monotone_and_capped(self, clean_sweep):
        for key in ("diag_relaxed", "diag_exact"):
            d = clean_sweep[0][key]
            mu = np.asarray(d.mu_history)
            assert np.all(np.diff(mu) >= 0)
            assert mu[-1] <= 1e10
