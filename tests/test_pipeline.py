import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscluster import (
    DivergenceError,
    SolverConfig,
    SyntheticSpec,
    cluster_sequential,
    estimate_k,
    generate_synthetic,
    normalize_columns,
    sce,
    ssc_solve,
)
from oscluster import pipeline, spectral
from oscluster.pipeline import METHODS
from oscluster.spectral import K_ESTIMATORS


class TestNormalizeColumns:
    def test_unit_norms(self, rng):
        x = 5.0 * rng.standard_normal((6, 8))
        xn = normalize_columns(x)
        assert np.allclose(np.linalg.norm(xn, axis=0), 1.0, atol=1e-12)

    def test_zero_column_preserved(self):
        x = np.ones((3, 3))
        x[:, 1] = 0.0
        xn = normalize_columns(x)
        assert np.array_equal(xn[:, 1], np.zeros(3))


class TestEstimateK:
    def test_eigengap_dispatch(self):
        # Two dense blocks joined by weak links: two groups by the
        # Laplacian's eigengap.
        w = np.kron(np.eye(2), np.ones((3, 3))) + 0.01
        assert estimate_k(w, "eigengap") == 2

    def test_sv_threshold_needs_tau(self):
        with pytest.raises(ValueError):
            estimate_k(np.eye(3), "sv-threshold")
        assert estimate_k(np.eye(3), "sv-threshold", tau=0.5) == 3

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            estimate_k(np.eye(3), "elbow")
        with pytest.raises(ValueError, match="unknown k estimator 'svd-gap'"):
            estimate_k(np.eye(3), "svd-gap")


@pytest.fixture
def refuse_solve(monkeypatch):
    """Fail the test if cluster_sequential reaches the solver."""

    def solve(*args, **kwargs):
        raise AssertionError("solved with bad settings")

    monkeypatch.setattr("oscluster.pipeline.solve_coefficients", solve)


class TestClusterSequential:
    def test_clean_sequence_segmented_exactly(self):
        x, labels = generate_synthetic(SyntheticSpec(seed=0))
        cfg = SolverConfig(lambda1=0.1, lambda2=1.0, mu0=1.0)
        result = cluster_sequential(x, method="osc-relaxed", config=cfg, k=5, seed=0)
        assert result.k == 5
        assert not result.k_was_estimated
        assert sce(result.labels, labels) == 0.0
        assert result.z.shape == (100, 100)
        assert result.affinity.shape == (100, 100)
        assert result.diagnostics.converged
        assert result.wall_ms > 0

    def test_estimated_k(self):
        x, labels = generate_synthetic(SyntheticSpec(seed=1))
        cfg = SolverConfig(lambda1=0.1, lambda2=1.0, mu0=1.0)
        result = cluster_sequential(x, method="osc-relaxed", config=cfg, k=None)
        assert result.k_was_estimated
        assert result.k == 5
        assert sce(result.labels, labels) == 0.0

    def test_k_one_groups_everything(self, rng):
        x = rng.standard_normal((5, 8))
        result = cluster_sequential(x, method="ssc", config=SolverConfig(lambda1=0.2), k=1)
        assert np.array_equal(result.labels, np.zeros(8, dtype=int))
        # Nothing read the Laplacian, so no reduction served.
        assert result.spectrum is None

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_run(self, method):
        rng = np.random.default_rng(20)
        q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        x = np.hstack(
            [q[:, :2] @ rng.standard_normal((2, 6)), q[:, 2:] @ rng.standard_normal((2, 6))]
        )
        cfg = SolverConfig(lambda1=0.1, lambda2=0.01)
        result = cluster_sequential(x, method=method, config=cfg, k=2, seed=1)
        assert result.labels.shape == (12,)
        assert set(result.labels) <= {0, 1}
        if method == "lrr-sim":
            assert result.diagnostics is None
        else:
            assert result.diagnostics is not None

    @pytest.mark.parametrize("k", [2.5, 5.0, "3", True, 0, 13])
    def test_bad_k_refused_before_solving(self, rng, refuse_solve, k):
        with pytest.raises(ValueError, match="k must be an int"):
            cluster_sequential(rng.standard_normal((4, 12)), method="ssc", k=k)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "1", -1], ids=repr)
    def test_bad_seed_refused_before_solving(self, rng, refuse_solve, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            cluster_sequential(rng.standard_normal((4, 12)), method="ssc", k=2, seed=seed)

    @pytest.mark.parametrize("normalize", ["false", 0, 1, None, np.True_], ids=repr)
    def test_non_bool_normalize_refused_before_solving(self, rng, refuse_solve, normalize):
        # "false" once normalized and 0 once skipped it.
        with pytest.raises(ValueError, match="normalize must be true or false"):
            cluster_sequential(rng.standard_normal((4, 12)), k=2, normalize=normalize)

    @pytest.mark.parametrize(
        "k, k_method, sv_tau, match",
        [
            (None, "bogus", None, "unknown k estimator"),
            (5, "bogus", None, "unknown k estimator"),
            (None, "svd-gap", None, "unknown k estimator"),
            (None, "sv-threshold", None, "tau"),
            (None, "sv-threshold", float("nan"), "tau"),
            (None, "sv-threshold", float("inf"), "tau"),
            (None, "sv-threshold", 0.0, "tau"),
            (None, "sv-threshold", -1.0, "tau"),
        ],
    )
    def test_bad_k_estimator_refused_before_solving(
        self, rng, refuse_solve, k, k_method, sv_tau, match
    ):
        with pytest.raises(ValueError, match=match):
            cluster_sequential(
                rng.standard_normal((4, 12)), k=k, k_method=k_method, sv_tau=sv_tau
            )

    def test_given_k_needs_no_tau(self, rng):
        x = rng.standard_normal((5, 8))
        result = cluster_sequential(x, method="lrr-sim", k=2, k_method="sv-threshold")
        assert result.k == 2

    def test_numpy_integer_k_accepted(self, rng):
        x = rng.standard_normal((5, 8))
        result = cluster_sequential(x, method="lrr-sim", k=np.int64(2))
        assert result.k == 2
        assert set(result.labels) <= {0, 1}

    def test_unknown_method(self, rng):
        x = rng.standard_normal((4, 6))
        with pytest.raises(ValueError):
            cluster_sequential(x, method="kmeans")

    def test_normalization_default_matters(self):
        # The generator's amplitudes are tiny; without column scaling the
        # entrywise penalty at its usual weight zeroes the coefficients.
        x, _ = generate_synthetic(SyntheticSpec(seed=3))
        cfg = SolverConfig(lambda1=0.1, lambda2=1.0, mu0=1.0)
        raw = cluster_sequential(x, method="osc-relaxed", config=cfg, k=5, normalize=False)
        assert np.max(np.abs(raw.z)) == 0.0
        scaled = cluster_sequential(x, method="osc-relaxed", config=cfg, k=5)
        assert np.max(np.abs(scaled.z)) > 0.0

    def test_noisy_sweep_stays_accurate(self, noisy_sweep_20db):
        arr = np.asarray(noisy_sweep_20db)
        assert arr.mean() <= 0.10


# Each fallback forms L in double and hands it to scipy's eigh.
FALLBACK = ["laplacian", "eigh"]


class TestOneReduction:
    @pytest.mark.parametrize(
        "k, fail, want",
        [
            (None, None, ["check", "spftrf", "spftrf"]),
            (4, None, ["check", "spftrf"]),
            # Sigma above l_5: the first Cholesky check refuses, and eigh
            # gives k.  The embedding tries the tier again, with the same
            # result, and eigh gives it too.
            (
                None,
                ("_CHOLESKY_MARGIN", -0.5),
                ["check", "spftrf", *FALLBACK, "spftrf", *FALLBACK],
            ),
            # The filter gives up: no Cholesky check runs.
            (
                4,
                ("_EMBEDDING_TOLERANCE", 0.0),
                ["check", *FALLBACK],
            ),
        ],
        # The first two ids are the ones these cases had before the
        # fallback cases were added.
        ids=[
            "None-eigengap-want0",
            "4-eigengap-want1",
            "None-eigengap-fallback",
            "4-eigengap-fallback",
        ],
    )
    def test_affinity_is_checked_once_and_reduced_once(self, monkeypatch, k, fail, want):
        # Spies on the names spectral looks up.  W is checked once.  The
        # subspace tier proves k and the embedding with float32 Cholesky
        # checks, two for an estimated k (l_max and l_{k+1}), one for a
        # given k; an estimated k's embedding is the one its eigengap
        # proved.  numpy runs no N x N eigensolve; the Rayleigh-Ritz steps
        # solve problems the size of the block, 16 or k + 3.  Each answer the
        # tier cannot prove takes one eigh of the double L: all eigenvalues
        # with driver evd for k, the k smallest eigenpairs for the
        # embedding.
        calls, eigh_shapes, eigh_kwargs = [], [], []

        def spy(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return call

        def eigh_spy(fn):
            def call(a, *args, **kwargs):
                eigh_shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)

            return call

        def scipy_eigh_spy(fn):
            def call(a, **kwargs):
                calls.append("eigh")
                eigh_kwargs.append(kwargs)
                return fn(a, **kwargs)

            return call

        monkeypatch.setattr(spectral, "normalized_laplacian", spy("laplacian", spectral.normalized_laplacian))
        monkeypatch.setitem(spectral._LAPACK, "pftrf", spy("spftrf", spectral._LAPACK["pftrf"]))
        monkeypatch.setattr(spectral, "_check_affinity", spy("check", spectral._check_affinity))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", eigh_spy(np.linalg.eigh))
        monkeypatch.setattr(scipy.linalg, "eigh", scipy_eigh_spy(scipy.linalg.eigh))
        if fail is not None:
            monkeypatch.setattr(spectral, *fail)
        x, labels = generate_synthetic(SyntheticSpec(num_subspaces=4, seed=2))
        result = cluster_sequential(x, method="lrr-sim", k=k)
        assert calls == want
        values = dict(eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd")
        vectors = dict(subset_by_index=[0, 3], overwrite_a=True, check_finite=False)
        assert eigh_kwargs == [values, vectors][2 - want.count("eigh") :]
        # An estimated k reads the gap block of 16.  A given k, or the
        # embedding after the eigengap fell back, filters a block of 4 + 3.
        blocks = {16} if k is None else set()
        if k is not None or fail is not None:
            blocks.add(4 + 3)
        assert set(eigh_shapes) == {(block, block) for block in blocks}
        assert result.spectrum == ("subspace" if fail is None else "float64")
        assert result.k == 4
        assert sce(result.labels, labels) == 0.0


# The pipeline binding each method's solver is looked up under.
SOLVER_OF = {
    "osc-relaxed": "solve_relaxed",
    "osc-exact": "solve_exact",
    "ssc": "ssc_solve",
    "spatsc": "spatsc_solve",
    "lrr-sim": "sim_closed_form",
}


class TestSolverContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_calls_its_solver_once(self, monkeypatch, method):
        # Every iterative method is solve(x, config); lrr-sim is
        # sim_closed_form(x).  Spies on the module bindings see the calls,
        # as the benchmark's tracing wrappers must.
        calls = []

        def spy(name, solver):
            def call(*args, **kwargs):
                calls.append((name, args, kwargs))
                return solver(*args, **kwargs)

            return call

        for name in SOLVER_OF.values():
            monkeypatch.setattr(pipeline, name, spy(name, getattr(pipeline, name)))
        rng = np.random.default_rng(20)
        x = rng.standard_normal((6, 12))
        config = SolverConfig(lambda1=0.1, lambda2=0.01)
        cluster_sequential(x, method=method, config=config, k=2, normalize=False)
        assert [name for name, _, _ in calls] == [SOLVER_OF[method]]
        _, args, kwargs = calls[0]
        want = (x,) if method == "lrr-sim" else (x, config)
        assert len(args) == len(want) and all(a is b for a, b in zip(args, want))
        assert kwargs == {}

    def test_ssc_budget_is_the_config_budget(self):
        # Clean seed 3 needs 2483 sweeps at lambda1 = 0.2, more than the
        # default budget: called directly or through the pipeline, ssc
        # stops at the same max_iter and says it did not converge.
        x, _ = generate_synthetic(SyntheticSpec(seed=3))
        xn = normalize_columns(x)
        config = SolverConfig(lambda1=0.2)
        _, direct = ssc_solve(xn, config)
        piped = cluster_sequential(x, method="ssc", config=config, k=5).diagnostics
        assert (piped.iterations, piped.converged) == (direct.iterations, direct.converged)
        assert direct.iterations == config.max_iter and not direct.converged
        _, default = ssc_solve(xn)
        assert default.iterations == SolverConfig().max_iter


@st.composite
def edge_inputs(draw):
    """A small D x N matrix (D 1-7, N 2-11) with some columns zeroed and
    some copied over others, or all of it zero, and a k, given or None."""
    d, n = draw(st.integers(1, 7)), draw(st.integers(2, 11))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d, n))
    column = st.integers(0, n - 1)
    x[:, draw(st.lists(column, max_size=n))] = 0.0
    for source, target in draw(st.lists(st.tuples(column, column), max_size=n)):
        x[:, target] = x[:, source]
    x *= draw(st.sampled_from([1.0, 0.0]))
    return x, draw(st.none() | st.integers(1, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(METHODS),
    k_method=st.sampled_from(K_ESTIMATORS),
    inputs=edge_inputs(),
)
@example(method="osc-relaxed", k_method="eigengap", inputs=(np.zeros((1, 2)), None))
@example(method="spatsc", k_method="eigengap", inputs=(np.zeros((3, 5)), 2))
@example(method="osc-exact", k_method="eigengap", inputs=(np.zeros((1, 2)), None))
def test_degenerate_inputs_give_defined_results(method, k_method, inputs):
    # A segmentation by any method, with k given or estimated by any
    # estimator, either succeeds with finite Z and labels in [0, k), or says
    # why it cannot with ValueError or DivergenceError; no warning.
    x, k = inputs
    config = SolverConfig(lambda1=0.1, lambda2=0.01 if method == "spatsc" else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = cluster_sequential(
                x, method=method, config=config, k=k, k_method=k_method, sv_tau=0.5
            )
        except (ValueError, DivergenceError):
            return
    assert np.all(np.isfinite(result.z))
    assert result.labels.shape == (x.shape[1],)
    assert np.all((0 <= result.labels) & (result.labels < result.k))
