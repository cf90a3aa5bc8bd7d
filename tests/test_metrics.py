import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oscluster import psnr, sce
from oscluster.metrics import _max_assignment

from helpers import brute_force_sce


class TestClusteringError:
    def test_identical_labels(self):
        assert sce([0, 1, 2, 1], [0, 1, 2, 1]) == 0.0

    def test_relabeling_is_free(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        predicted = np.array([2, 2, 0, 0, 1, 1])
        assert sce(predicted, truth) == 0.0

    def test_half_wrong(self):
        assert sce([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sce([0, 1], [0, 1, 2])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            sce(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sce([], [])

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 13))
            kp = int(rng.integers(1, 6))
            kt = int(rng.integers(1, 6))
            predicted = rng.integers(0, kp, size=n)
            truth = rng.integers(0, kt, size=n)
            assert sce(predicted, truth) == brute_force_sce(predicted, truth)

    def test_balanced_upper_bound(self):
        # With 3 balanced true groups of 2, any prediction keeps at least
        # one matched group, so the error never exceeds 1 - 1/k.
        truth = np.array([0, 0, 1, 1, 2, 2])
        worst = 0.0
        for assignment in itertools.product(range(3), repeat=6):
            worst = max(worst, sce(np.array(assignment), truth))
        assert worst <= 1.0 - 1.0 / 3.0 + 1e-12

    def test_surplus_predicted_labels_count_as_errors(self):
        # 4 predicted singletons vs 2 true groups: only 2 can match.
        assert sce([0, 1, 2, 3], [0, 0, 1, 1]) == 0.5

    @pytest.mark.parametrize("kp, kt", [(1, 7), (7, 1), (2, 7), (7, 3), (4, 6), (7, 7)])
    def test_rectangular_and_tied_confusions_match_brute_force(self, rng, kp, kt):
        # Counts from {0, 1, 2} tie many matchings; an all-ones confusion
        # ties every one of them.
        tables = [rng.integers(0, 3, size=(kp, kt)) for _ in range(8)]
        for counts in tables + [np.ones((kp, kt), dtype=int)]:
            counts[0, 0] += 1
            predicted = np.repeat(np.repeat(np.arange(kp), kt), counts.ravel())
            truth = np.repeat(np.tile(np.arange(kt), kp), counts.ravel())
            assert sce(predicted, truth) == brute_force_sce(predicted, truth)

    def test_shuffled_singletons_score_zero(self, rng):
        assert sce(rng.permutation(1600), np.arange(1600)) == 0.0

    def test_many_classes_match_scipy_assignment(self, rng):
        _, p = np.unique(rng.integers(0, 200, size=1600), return_inverse=True)
        _, t = np.unique(rng.integers(0, 200, size=1600), return_inverse=True)
        confusion = np.zeros((p.max() + 1, t.max() + 1))
        np.add.at(confusion, (p, t), 1.0)
        rows, cols = linear_sum_assignment(confusion, maximize=True)
        matched = confusion[rows, cols].sum()
        assert _max_assignment(confusion) == matched
        assert sce(p, t) == 1.0 - matched / 1600


class TestPsnr:
    def test_exact_match_is_infinite(self):
        a = np.ones((3, 3))
        assert psnr(a, a.copy()) == math.inf

    def test_unit_peak_tenth_error(self):
        a = np.ones((4, 4))
        x = a + 0.1
        assert psnr(a, x) == pytest.approx(20.0, abs=1e-12)

    def test_independent_recompute(self, rng):
        a = np.abs(rng.standard_normal((5, 6))) + 0.5
        x = a + 0.03 * rng.standard_normal((5, 6))
        want = 10.0 * math.log10(float(a.max()) ** 2 / float(np.mean((a - x) ** 2)))
        assert psnr(a, x) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.ones((2, 2)), np.ones((2, 3)))

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ValueError):
            psnr(-np.ones((2, 2)), np.zeros((2, 2)))

    def test_constant_reference_allowed(self):
        a = np.full((3, 3), 2.0)
        x = a + 0.2
        assert psnr(a, x) == pytest.approx(20.0, abs=1e-12)
