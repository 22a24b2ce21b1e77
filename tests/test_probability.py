"""Unit tests for the information-measure toolkit and the array checks at
every public entry."""

import re

import numpy as np
import pytest

from oracles import entropy
from rdspectral import (
    IbProblem,
    RdProblem,
    ab_step,
    binary_hamming,
    boltzmann_factors,
    bottleneck_four_symbol,
    expected_distortion,
    ib_decoder,
    ib_distortion,
    ib_solve,
    ib_step,
    jacobian,
    kl_divergence,
    mutual_information,
    relevant_information,
    solve,
)
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


RD = binary_hamming()
IB = bottleneck_four_symbol()
SWAP = [[0.0, 1.0], [1.0, 0.0]]
DECODER = [[0.9, 0.1], [0.2, 0.8]]
MARGINAL_LENGTH = "marginal length does not match the representation alphabet"
MARGINAL_SHAPES = [([1.0], MARGINAL_LENGTH), ([0.5, 0.25, 0.25], MARGINAL_LENGTH),
                   ([[0.5, 0.5]], "marginal must be a non-empty 1-d vector")]

# Every public function that takes a mass array, fed a bad one through each
# such argument: the call, the argument's name in messages, a valid value, wrong
# shapes with their messages, and whether NaN and negative entries are
# rejected. expected_distortion checks only the shape, since every solve
# scores its own encoder with it.
ARRAY_ENTRIES = {
    "as_distribution": (as_distribution, "p", [0.5, 0.5],
                        [([[0.5, 0.5]], "p must be a non-empty 1-d vector")], True),
    "as_channel": (as_channel, "channel", [[1.0, 0.0]],
                   [([0.5, 0.5], "channel must be a non-empty 2-d matrix")], True),
    "RdProblem-px": (lambda a: RdProblem(px=a, d=SWAP), "px", [0.5, 0.5],
                     [([[0.5, 0.5]], "px must be a non-empty 1-d vector")], True),
    "RdProblem-d": (lambda a: RdProblem(px=[0.5, 0.5], d=a), "d", SWAP,
                    [([0.0, 1.0], "d must be a matrix with one row per source symbol")], True),
    "IbProblem": (lambda a: IbProblem(pxy=a), "pxy", [[0.4, 0.1], [0.1, 0.4]],
                  [([0.5, 0.5], "pxy must be a non-empty 2-d matrix")], True),
    "solve-init": (lambda a: solve(RD, 1.0, init=a), "init", [0.5, 0.5],
                   [([1.0], "init length does not match the representation alphabet")], True),
    "ab_step": (lambda a: ab_step(RD, a, 1.0), "marginal", [0.5, 0.5], MARGINAL_SHAPES, True),
    "boltzmann_factors": (lambda a: boltzmann_factors(RD, a, 1.0), "marginal", [0.5, 0.5],
                          MARGINAL_SHAPES, True),
    "jacobian": (lambda a: jacobian(RD, a, 1.0), "marginal", [0.5, 0.5], MARGINAL_SHAPES, True),
    "expected_distortion": (lambda a: expected_distortion(RD, a), "encoder", SWAP,
                            [([[1.0]], "encoder shape does not match the problem")], False),
    "ib_solve": (lambda a: ib_solve(IB, 1.0, init_encoder=a), "init encoder", np.eye(4),
                 [(np.eye(3), "init encoder shape does not match the problem")], True),
    "ib_step": (lambda a: ib_step(IB, a, 1.0), "encoder", np.eye(4),
                [(np.eye(4)[:, :3], "encoder shape does not match the problem")], True),
    "ib_decoder": (lambda a: ib_decoder(IB, a), "encoder", np.eye(4),
                   [(np.ones(4), "encoder shape does not match the problem")], True),
    "ib_distortion": (lambda a: ib_distortion(IB, a), "decoder", [[0.5, 0.5]],
                      [([0.5, 0.5], "decoder must be a non-empty 2-d matrix"),
                       ([[0.5, 0.5, 0.0]], "decoder rows do not match the relevance alphabet")],
                      True),
    "kl_divergence-p": (lambda a: kl_divergence(a, [0.5, 0.5]), "p", [0.5, 0.5],
                        [([[0.5, 0.5]], "p must be a non-empty 1-d vector"),
                         ([1.0], "p and q must have the same length")], True),
    "kl_divergence-q": (lambda a: kl_divergence([0.5, 0.5], a), "q", [0.5, 0.5],
                        [([[0.5, 0.5]], "q must be a non-empty 1-d vector")], True),
    "mutual_information-px": (lambda a: mutual_information(a, SWAP), "px", [0.5, 0.5],
                              [([[0.5, 0.5]], "px must be a non-empty 1-d vector")], True),
    "mutual_information-channel": (
        lambda a: mutual_information([0.5, 0.5], a), "channel", SWAP,
        [([0.5, 0.5], "channel must be a non-empty 2-d matrix")], True),
    "relevant_information-marginal": (
        lambda a: relevant_information(IB, a, DECODER), "marginal", [0.5, 0.5],
        [([[0.5, 0.5]], "marginal must be a non-empty 1-d vector"),
         ([1.0], "decoder must have one row per marginal entry")], True),
    "relevant_information-decoder": (
        lambda a: relevant_information(IB, [0.5, 0.5], a), "decoder", DECODER,
        [([0.5, 0.5], "decoder must be a non-empty 2-d matrix"),
         ([[0.5, 0.5, 0.0]] * 2, "decoder rows do not match the relevance alphabet")], True),
}


def _with_first(valid, value):
    bad = np.array(valid, dtype=float)
    bad.flat[0] = value
    return bad


def _boundary_cases():
    for label, (call, name, valid, shapes, checks_values) in ARRAY_ENTRIES.items():
        for i, (bad, message) in enumerate(shapes):
            yield pytest.param(call, bad, message, id=f"{label}-shape{i}")
        if checks_values:
            yield pytest.param(call, _with_first(valid, np.nan),
                               f"{name} contains non-finite entries", id=f"{label}-nan")
            yield pytest.param(call, _with_first(valid, -0.25),
                               f"{name} has negative entries", id=f"{label}-negative")


@pytest.mark.parametrize("call, bad, message", _boundary_cases())
def test_public_entries_reject_bad_arrays(call, bad, message):
    """Each bad array raises a ValueError that names its argument; before
    one check ran at every entry, some of these returned a result, warned
    or failed inside numpy."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_every_valid_entry_value_passes():
    """The valid values the bad arrays are made from pass their checks, so
    each rejection above comes from the one entry it corrupts."""
    for call, _, valid, _, _ in ARRAY_ENTRIES.values():
        call(valid)


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

    def test_near_equal_pair_is_not_negative(self):
        """Two distributions a rounding apart: the masked sum alone read
        -6.66e-17, and weighted_divergence clips its residue at 0."""
        assert kl_divergence([0.3, 0.3, 0.4],
                             [0.3000000000000001, 0.2999999999999999, 0.4]) == 0.0

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

