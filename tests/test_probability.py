"""Unit tests for the information-measure toolkit."""

import numpy as np
import pytest

from oracles import entropy
from rdspectral import kl_divergence, mutual_information
from rdspectral.probability import as_channel, as_distribution


class TestValidation:
    def test_distribution_renormalizes_with_warning(self):
        with pytest.warns(UserWarning):
            p = as_distribution(np.array([0.5, 0.5 + 1e-6]))
        np.testing.assert_allclose(p.sum(), 1.0)

    def test_distribution_accepts_tiny_drift(self):
        p = as_distribution(np.array([0.5, 0.5 + 1e-14]))
        assert p[1] >= 0.5

    def test_channel_row_sums(self):
        with pytest.warns(UserWarning):
            ch = as_channel(np.array([[0.5, 0.51], [0.2, 0.8]]))
        np.testing.assert_allclose(ch.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "p, message",
        [
            ([[0.5, 0.5]], "must be a non-empty 1-d vector"),
            ([], "must be a non-empty 1-d vector"),
            ([np.nan, 1.0], "contains non-finite entries"),
            ([-0.5, 1.5], "has negative entries"),
            ([0.0, 0.0], "is identically zero"),
        ],
    )
    def test_distribution_rejections(self, p, message):
        with pytest.raises(ValueError, match=f"^p {message}$"):
            as_distribution(p)

    @pytest.mark.parametrize(
        "channel, message",
        [
            ([0.5, 0.5], "must be a non-empty 2-d matrix"),
            ([[np.inf, 1.0]], "contains non-finite entries"),
            ([[-0.5, 1.5]], "has negative entries"),
            ([[0.0, 0.0], [1.0, 0.0]], "has an all-zero row"),
        ],
    )
    def test_channel_rejections(self, channel, message):
        with pytest.raises(ValueError, match=f"^channel {message}$"):
            as_channel(channel)

    def test_mutual_information_rejects_row_count(self):
        with pytest.raises(ValueError, match="^channel must have one row per input symbol$"):
            mutual_information([0.5, 0.5], [[1.0, 0.0]])


class TestEntropy:
    def test_degenerate_is_zero(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_hits_log_n(self):
        np.testing.assert_allclose(entropy([0.25] * 4), np.log(4), atol=1e-12)

    def test_direct_summation_oracle(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        expected = -sum(pi * np.log(pi) for pi in p)
        np.testing.assert_allclose(entropy(p), expected, atol=1e-13)
        np.testing.assert_allclose(entropy(p), 1.27985, atol=1e-5)

    def test_upper_bound_with_uniform_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            assert entropy(p) <= np.log(n) + 1e-12


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        np.testing.assert_allclose(
            kl_divergence([1, 0], [0.5, 0.5]), np.log(2), atol=1e-12
        )

    def test_swapped_binary_oracle(self):
        val = kl_divergence([0.2, 0.8], [0.8, 0.2])
        np.testing.assert_allclose(val, 0.6 * np.log(4), atol=1e-12)

    def test_support_violation_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            val = kl_divergence(p, q)
            assert val >= 0
            if np.max(np.abs(p - q)) < 1e-12:
                assert val < 1e-10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])


class TestMutualInformation:
    def test_identical_rows_independent(self):
        ch = np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
        assert mutual_information([0.2, 0.3, 0.5], ch) == 0.0

    def test_noiseless_binary_channel(self):
        np.testing.assert_allclose(
            mutual_information([0.5, 0.5], np.eye(2)), np.log(2), atol=1e-12
        )

    def test_double_sum_oracle(self):
        px = np.array([0.7, 0.1, 0.1, 0.1])
        rows = np.array([[0.2, 0.8], [0.4, 0.6], [0.6, 0.4], [0.8, 0.2]])
        out = px @ rows
        expected = sum(
            px[i] * rows[i, j] * np.log(rows[i, j] / out[j])
            for i in range(4)
            for j in range(2)
        )
        np.testing.assert_allclose(
            mutual_information(px, rows), expected, atol=1e-12
        )

    def test_two_computation_paths_agree(self):
        """Average KL to the output marginal equals the entropy difference."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = rng.dirichlet(np.ones(n))
            ch = rng.dirichlet(np.ones(k), size=n)
            out = px @ ch
            via_entropy = entropy(out) - sum(
                px[i] * entropy(ch[i]) for i in range(n)
            )
            np.testing.assert_allclose(
                mutual_information(px, ch), via_entropy, atol=1e-10
            )

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = rng.dirichlet(np.ones(n))
            ch = rng.dirichlet(np.ones(k), size=n)
            mi = mutual_information(px, ch)
            assert -1e-12 <= mi <= min(entropy(px), np.log(k)) + 1e-10

