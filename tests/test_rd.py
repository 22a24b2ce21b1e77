"""Unit tests for the rate-distortion problem type and the alternating solver."""

import hashlib
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ab_iterates,
    block_of,
    binary_hamming_distortion,
    binary_hamming_rate,
    count_flushes,
    encoder_from_marginal,
    factors_and_gap,
    lagrangian,
    random_problem,
    residual,
    stepped_solve,
    unreplayed_calls,
)
from rdspectral import (
    NumericalError,
    RdProblem,
    RdSolution,
    SolverConfig,
    ab_step,
    binary_hamming,
    boltzmann_factors,
    eigen_spectrum,
    jacobian,
    mutual_information,
    planar_four_point,
    solve,
    solve_batch,
)
from rdspectral import rd as rdmod
from rdspectral.probability import TINY_MASS
from rdspectral.problems import builtin_problem, dump_problem, load_problem


def random_start(rng, m):
    """A Dirichlet draw with each coordinate zeroed with probability 0.3,
    keeping at least one, renormalized."""
    q = rng.dirichlet(np.ones(m))
    dead = rng.random(m) < 0.3
    dead[rng.integers(m)] = False
    q[dead] = 0.0
    return q / q.sum()


class TestRdProblemValidation:
    def test_rejects_negative_distortion(self):
        with pytest.raises(ValueError, match="^d has negative entries$"):
            RdProblem(px=[0.5, 0.5], d=[[0.0, -1.0], [1.0, 0.0]])

    def test_rejects_infinite_distortion(self):
        with pytest.raises(ValueError, match="finite"):
            RdProblem(px=[0.5, 0.5], d=[[0.0, np.inf], [1.0, 0.0]])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="identical"):
            RdProblem(px=[0.5, 0.5], d=[[0.3, 0.3], [0.7, 0.7]])

    @pytest.mark.parametrize(
        "d, pair",
        [
            # two duplicate pairs: the first column with a duplicate wins
            ([[1.0, 2.0, 1.0, 2.0, 3.0], [0.0, 5.0, 0.0, 5.0, 3.0]], (0, 2)),
            ([[2.0, 1.0, 1.0, 2.0], [5.0, 0.0, 0.0, 5.0]], (0, 3)),
            # -0.0 and 0.0 are the same distortion
            ([[1.0, 0.0, -0.0], [0.5, 1.0, 1.0]], (1, 2)),
            ([[-0.0, 1.0, 0.0], [0.0, 0.0, -0.0]], (0, 2)),
        ],
    )
    def test_duplicate_message_names_first_pair(self, d, pair):
        n = len(d)
        with pytest.raises(
            ValueError, match=f"columns {pair[0]} and {pair[1]} are identical"
        ):
            RdProblem(px=np.full(n, 1.0 / n), d=d)

    def test_duplicate_check_matches_pairwise_scan(self):
        """The sorted check names the same pair as a scan over all pairs, on
        small integer matrices where repeats are common."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            d = rng.integers(0, 2, size=(n, m)).astype(float)
            expected = next(
                (
                    (j, k)
                    for j in range(m)
                    for k in range(j + 1, m)
                    if np.array_equal(d[:, j], d[:, k])
                ),
                None,
            )
            assert rdmod._duplicate_columns(d) == expected

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0]])

    def test_rejects_no_representatives(self):
        with pytest.raises(ValueError, match="at least one column"):
            RdProblem(px=[1.0], d=np.zeros((1, 0)))

    def test_json_form_needs_d(self):
        with pytest.raises(ValueError, match="^missing field 'd' in rate-distortion problem$"):
            RdProblem.from_json_dict({"px": [1.0]})

    def test_solve_rejects_init_of_wrong_length(self):
        with pytest.raises(ValueError,
                           match="^init length does not match the representation alphabet$"):
            solve(binary_hamming(), 1.0, init=[1.0])

    def test_boltzmann_factors_reject_marginal_without_support(self):
        with pytest.raises(ValueError, match="^marginal has no support$"):
            boltzmann_factors(binary_hamming(), [0.0, 0.0], 1.0)

    def test_caller_arrays_are_copied(self):
        """Writing to the caller's arrays afterwards cannot change the problem,
        not even into the duplicate columns the constructor rejects."""
        px = np.array([0.5, 0.5])
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = RdProblem(px=px, d=d)
        d[:, 1] = d[:, 0]
        px[:] = [1.0, 0.0]
        np.testing.assert_array_equal(problem.d, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(problem.px, [0.5, 0.5])

    def test_arrays_are_read_only(self):
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="read-only"):
            problem.d[:, 1] = problem.d[:, 0]
        with pytest.raises(ValueError, match="read-only"):
            problem.px[0] = 1.0

    @pytest.mark.parametrize("bias", [0.0, 1.0, np.nan])
    def test_binary_hamming_needs_an_inner_bias(self, bias):
        with pytest.raises(ValueError, match=r"^source bias must lie in \(0, 1\)$"):
            binary_hamming(bias)

    def test_json_roundtrip(self, tmp_path):
        problem = binary_hamming(0.7)
        dump_problem(problem, tmp_path / "p.json")
        again = load_problem(tmp_path / "p.json")
        assert isinstance(again, RdProblem)
        np.testing.assert_array_equal(problem.px, again.px)
        np.testing.assert_array_equal(problem.d, again.d)


class TestEncoderFromMarginal:
    def test_beta_zero_rows_equal_marginal(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, 3, 4)
        q = rng.dirichlet(np.ones(4))
        enc = encoder_from_marginal(problem, q, 0.0)
        for row in enc:
            np.testing.assert_allclose(row, q, atol=1e-14)

    def test_point_mass_marginal_pins_rows(self):
        problem = binary_hamming()
        enc = encoder_from_marginal(problem, np.array([1.0, 0.0]), 3.0)
        np.testing.assert_array_equal(enc, [[1.0, 0.0], [1.0, 0.0]])

    def test_binary_hamming_closed_form(self):
        """At beta = log 3 the off term is exp(-beta)/(1 + exp(-beta)) = 1/4."""
        problem = binary_hamming()
        enc = encoder_from_marginal(problem, np.array([0.5, 0.5]), np.log(3))
        np.testing.assert_allclose(enc, [[0.75, 0.25], [0.25, 0.75]], atol=1e-14)

    def test_rejects_negative_beta(self):
        problem = binary_hamming()
        with pytest.raises(ValueError):
            encoder_from_marginal(problem, np.array([0.5, 0.5]), -1.0)


class TestAbStep:
    def test_identity_at_beta_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            problem = random_problem(rng)
            q = rng.dirichlet(np.ones(problem.m))
            np.testing.assert_allclose(ab_step(problem, q, 0.0), q, atol=1e-14)

    def test_zero_coordinates_preserved_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            problem = random_problem(rng, m=4)
            q = rng.dirichlet(np.ones(4))
            q[rng.integers(0, 4)] = 0.0
            q = q / q.sum()
            out = ab_step(problem, q, float(rng.uniform(0.1, 20)))
            assert np.all(out[q == 0.0] == 0.0)

    def test_symmetric_fixed_point(self):
        problem = binary_hamming()
        for beta in (0.3, np.log(3), 4.0):
            np.testing.assert_allclose(
                ab_step(problem, np.array([0.5, 0.5]), beta),
                [0.5, 0.5],
                atol=1e-15,
            )

    def test_simplex_preservation(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            problem = random_problem(rng)
            q = rng.dirichlet(np.ones(problem.m))
            out = ab_step(problem, q, float(rng.uniform(0, 30)))
            assert np.all(out >= 0)
            np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("marginal", [[5e-324, 0.0, 0.0, 0.0], [1e308] * 4])
    def test_raises_at_the_ends_of_the_float_range(self, marginal):
        """A lone sub-normal mass gave [inf, nan, nan, nan], and masses whose
        partition function overflows gave all zeros, though the map is
        scale-invariant; both came back without an error."""
        with pytest.raises(NumericalError, match="float range"):
            ab_step(planar_four_point(), marginal, 1.0)


# Tolerances of the invariance properties below, stated before measuring;
# the largest deviations seen over 3,000 random draws were 2.2e-16 below a
# zero gap, a relative 6.0e-16 under a permutation and 1.1e-14 under a shift.
GAP_FLOOR = -1e-15
PERMUTATION_RTOL = 1e-12
SHIFT_RTOL = 1e-10


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 5))
def test_gap_is_non_negative_at_any_marginal(seed, budget):
    """The gap is log max_j c_j, and sum_j q_j c_j = 1 at every marginal q,
    so max_j c_j >= 1 away from fixed points too: solves stopped by a budget
    of one to five steps, from starts with exact zeros, read a gap of at
    least GAP_FLOOR."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    problem = random_problem(rng, int(rng.integers(1, 7)), m)
    sol = solve(problem, float(rng.uniform(0.0, 30.0)), random_start(rng, m),
                SolverConfig(max_iterations=budget))
    assert sol.gap >= GAP_FLOOR


def assert_same_step(got, want, rtol):
    """got equals want to rtol, with the exact zeros in the same places."""
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ab_step_commutes_with_a_permutation_of_representatives(seed):
    """Relabeling the representatives relabels ab_step's result, to
    PERMUTATION_RTOL, from starts with exact zeros."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    problem = random_problem(rng, int(rng.integers(1, 7)), m)
    q, beta, perm = random_start(rng, m), float(rng.uniform(0.0, 50.0)), rng.permutation(m)
    permuted = RdProblem(px=problem.px, d=problem.d[:, perm])
    assert_same_step(ab_step(permuted, q[perm], beta), ab_step(problem, q, beta)[perm],
                     PERMUTATION_RTOL)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ab_step_ignores_a_row_constant_shift(seed):
    """d(x, j) + c(x) gives each source symbol's Boltzmann factors a common
    factor, which the partition function divides out: ab_step's result is
    unchanged to SHIFT_RTOL for beta up to 50, d in [0, 1] and c in [0, 1],
    from starts with exact zeros."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    problem = random_problem(rng, n, m)
    shifted = RdProblem(px=problem.px, d=problem.d + rng.uniform(0.0, 1.0, (n, 1)))
    q, beta = random_start(rng, m), float(rng.uniform(0.0, 50.0))
    assert_same_step(ab_step(shifted, q, beta), ab_step(problem, q, beta), SHIFT_RTOL)


class TestResidual:
    def test_zero_at_fixed_point(self):
        problem = binary_hamming()
        res = residual(problem, np.array([0.5, 0.5]), 2.0)
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_zero_at_beta_zero(self):
        rng = np.random.default_rng(5)
        problem = random_problem(rng)
        q = rng.dirichlet(np.ones(problem.m))
        np.testing.assert_allclose(residual(problem, q, 0.0), 0.0, atol=1e-14)

    def test_matches_step_difference(self):
        """Direct formula and q - ab_step(q) are two routes to the same map."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            problem = random_problem(rng)
            q = rng.dirichlet(np.ones(problem.m))
            beta = float(rng.uniform(0, 10))
            lhs = residual(problem, q, beta)
            rhs = q - ab_step(problem, q, beta)
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_entries_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            problem = random_problem(rng)
            q = rng.dirichlet(np.ones(problem.m))
            assert abs(residual(problem, q, 3.0).sum()) < 1e-14


class TestLagrangian:
    def test_constant_rows_have_zero_rate(self):
        problem = RdProblem(px=[0.6, 0.4], d=[[0.0, 1.0], [1.0, 0.0]])
        q = np.array([0.3, 0.7])
        enc = np.stack([q, q])
        beta = 2.5
        expected = beta * float(problem.px @ (enc * problem.d).sum(axis=1))
        np.testing.assert_allclose(
            lagrangian(problem, enc, beta), expected, atol=1e-12
        )

    def test_identity_encoder_zero_distortion(self):
        problem = binary_hamming()
        np.testing.assert_allclose(
            lagrangian(problem, np.eye(2), 1.0), np.log(2), atol=1e-12
        )

    def test_two_path_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            problem = random_problem(rng)
            enc = rng.dirichlet(np.ones(problem.m), size=problem.n)
            beta = float(rng.uniform(0, 5))
            direct = lagrangian(problem, enc, beta)
            double_sum = sum(
                problem.px[i] * enc[i, j] * problem.d[i, j]
                for i in range(problem.n)
                for j in range(problem.m)
            )
            other = mutual_information(problem.px, enc) + beta * double_sum
            np.testing.assert_allclose(direct, other, atol=1e-10)


class TestSolve:
    def test_binary_hamming_closed_form(self):
        problem = binary_hamming()
        beta = np.log(3)
        sol = solve(problem, beta)
        assert sol.converged
        np.testing.assert_allclose(sol.marginal, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.distortion, 0.25, atol=1e-9)
        np.testing.assert_allclose(
            sol.rate, binary_hamming_rate(0.5, beta), atol=1e-9
        )
        np.testing.assert_allclose(sol.rate, 0.1308, atol=1e-4)

    def test_skewed_binary_closed_form(self):
        problem = binary_hamming(0.7)
        beta = 2.0
        sol = solve(problem, beta, config=SolverConfig(epsilon=1e-12))
        np.testing.assert_allclose(
            sol.distortion, binary_hamming_distortion(beta), atol=1e-8
        )
        np.testing.assert_allclose(
            sol.rate, binary_hamming_rate(0.7, beta), atol=1e-8
        )

    def test_beta_zero_is_one_step(self):
        rng = np.random.default_rng(9)
        problem = random_problem(rng)
        sol = solve(problem, 0.0)
        assert sol.converged and sol.iterations <= 1
        np.testing.assert_allclose(
            sol.marginal, np.full(problem.m, 1 / problem.m), atol=1e-12
        )
        assert sol.rate < 1e-12

    def test_single_representative(self):
        problem = RdProblem(px=[0.5, 0.5], d=[[0.2], [0.6]])
        sol = solve(problem, 4.0)
        assert sol.converged and sol.iterations == 1
        np.testing.assert_array_equal(sol.marginal, [1.0])
        np.testing.assert_array_equal(sol.encoder, [[1.0], [1.0]])
        assert sol.rate == 0.0

    @pytest.mark.parametrize("beta", [np.inf, np.nan, -1.0])
    def test_rejects_non_finite_or_negative_beta(self, beta):
        with pytest.raises(ValueError, match="finite and non-negative"):
            solve(binary_hamming(), beta)

    def test_iterates_the_step_map_bit_for_bit(self):
        """A budget of k returns the k-th application of ab_step."""
        rng = np.random.default_rng(14)
        for _ in range(10):
            problem = random_problem(rng)
            beta = float(rng.uniform(0.5, 20))
            init = rng.dirichlet(np.ones(problem.m))
            for k, q in enumerate(ab_iterates(problem, init, beta, 25)[1:], 1):
                sol = solve(problem, beta, init=init,
                            config=SolverConfig(max_iterations=k))
                np.testing.assert_array_equal(sol.marginal, q)
                if sol.converged:
                    break

    def test_budget_exhaustion_flags_not_raises(self):
        problem = binary_hamming(0.8)
        sol = solve(problem, 2.5, config=SolverConfig(max_iterations=3))
        assert not sol.converged
        assert sol.iterations == 3

    def test_huge_beta_stays_finite(self):
        """The shifted partition function survives beta far beyond exp range."""
        problem = binary_hamming(0.6)
        sol = solve(problem, 5000.0)
        assert sol.converged
        np.testing.assert_allclose(sol.marginal, [0.6, 0.4], atol=1e-6)

    def test_lagrangian_monotone_along_trace(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            problem = random_problem(rng)
            beta = float(rng.uniform(0.5, 8))
            sol = solve(problem, beta, config=SolverConfig(epsilon=1e-11))
            uniform = np.full(problem.m, 1.0 / problem.m)
            values = [
                lagrangian(problem, encoder_from_marginal(problem, q, beta), beta)
                for q in ab_iterates(problem, uniform, beta, sol.iterations)
            ]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12)

    def test_curve_monotone_in_beta(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, 4, 4)
        betas = np.linspace(0.5, 12, 12)
        sols = [solve(problem, b, config=SolverConfig(epsilon=1e-12)) for b in betas]
        rates = [s.rate for s in sols]
        dists = [s.distortion for s in sols]
        assert all(r2 >= r1 - 1e-9 for r1, r2 in zip(rates, rates[1:]))
        assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))

    def test_source_permutation_equivariance(self):
        """Permuting source symbols (px and d rows) leaves the marginal alone."""
        rng = np.random.default_rng(12)
        problem = random_problem(rng, 5, 3)
        perm = rng.permutation(5)
        permuted = RdProblem(px=problem.px[perm], d=problem.d[perm])
        a = solve(problem, 3.0, config=SolverConfig(epsilon=1e-12))
        b = solve(permuted, 3.0, config=SolverConfig(epsilon=1e-12))
        np.testing.assert_allclose(a.marginal, b.marginal, atol=1e-10)
        np.testing.assert_allclose(a.encoder[perm], b.encoder, atol=1e-10)

    def test_marginal_consistency_invariant(self):
        rng = np.random.default_rng(13)
        problem = random_problem(rng)
        sol = solve(problem, 4.0, config=SolverConfig(epsilon=1e-12))
        np.testing.assert_allclose(
            sol.marginal, problem.px @ sol.encoder, atol=1e-10
        )
        np.testing.assert_allclose(
            sol.rate, mutual_information(problem.px, sol.encoder), atol=1e-10
        )


class TestBuiltinProblems:
    def test_planar_distortion_normalization(self):
        problem = planar_four_point()
        assert problem.d.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(problem.d), 0.0)
        assert problem.d.min() >= 0.0
        assert problem.d.max() == 1.0
        np.testing.assert_allclose(problem.d, problem.d.T, atol=0)
        np.testing.assert_allclose(problem.px, [0.4, 0.3, 0.2, 0.1], atol=1e-15)

    def test_planar_optimal_support_path(self):
        """Uniform-start solves follow the optimal branch, whose support is
        not nested: representative 3 lives only for beta in (0.445, 2.83)."""
        problem = planar_four_point()
        config = SolverConfig(epsilon=1e-13)
        expected = {0.3: [1], 1.5: [1, 3], 2.7: [0, 1, 3], 3.5: [0, 1],
                    10.0: [0, 1, 2], 30.0: [0, 1, 2, 3]}
        for beta, alive in expected.items():
            sol = solve(problem, beta, config=config)
            assert sol.converged
            assert np.flatnonzero(sol.marginal > 1e-5).tolist() == alive

    def test_unknown_builtin_lists_choices(self):
        from rdspectral import builtin_problem

        with pytest.raises(ValueError, match="binary_hamming"):
            builtin_problem("not_a_problem")


class TestSolverConfig:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            SolverConfig(norm="l2")

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("budget", [10.0, 2.5, True, "10"])
    def test_rejects_non_integer_budget(self, budget):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(max_iterations=budget)

    def test_accepts_numpy_integer_budget(self):
        assert SolverConfig(max_iterations=np.int64(7)).max_iterations == 7

    def test_fields_cannot_be_assigned(self):
        """An assigned field used to skip the checks: epsilon = 5.0 was
        accepted, and solve then stopped after one iteration."""
        config = SolverConfig()
        with pytest.raises(FrozenInstanceError):
            config.epsilon = 5.0
        assert config == SolverConfig()
        assert solve(binary_hamming(0.8), 2.0, config=config).iterations > 1


def assert_lanes_match_solve(problem, betas, inits=None, config=None):
    """Every lane of a batch equals a standalone solve bit for bit."""
    lanes = solve_batch(problem, betas, inits, config)
    assert len(lanes) == len(betas)
    for i, (beta, lane) in enumerate(zip(betas, lanes)):
        alone = solve(problem, beta, init=None if inits is None else inits[i],
                      config=config)
        np.testing.assert_array_equal(lane.marginal, alone.marginal)
        np.testing.assert_array_equal(lane.encoder, alone.encoder)
        assert lane.iterations == alone.iterations
        assert lane.converged == alone.converged
        assert lane.beta == alone.beta
        assert lane.gap == alone.gap
    return lanes


class TestSolveBatch:
    def test_planar_cold_grid(self):
        """The 140 cold solves of the planar benchmark grid, whose counts
        run from a handful to tens of thousands near the transitions."""
        problem = builtin_problem("fig1_like")
        grid = np.geomspace(50.0, 0.2, 420)[::3]
        lanes = assert_lanes_match_solve(
            problem, grid, config=SolverConfig(epsilon=1e-9)
        )
        assert sum(s.iterations for s in lanes) == 369923
        assert all(s.converged for s in lanes)

    def test_dirichlet_inits_with_exact_zeros(self):
        rng = np.random.default_rng(21)
        problem = random_problem(rng, 6, 5)
        inits = [rng.dirichlet(np.ones(5)) for _ in range(12)]
        for q in inits[::3]:
            q[[0, 3]] = 0.0
            q /= q.sum()
        lanes = assert_lanes_match_solve(
            problem, np.geomspace(0.5, 30.0, 12), inits, SolverConfig(epsilon=1e-11)
        )
        for lane in lanes[::3]:
            assert lane.marginal[0] == 0.0 and lane.marginal[3] == 0.0

    def test_l1_norm_at_m32(self):
        """Pairwise summation over 32 entries, per lane and per vector."""
        rng = np.random.default_rng(22)
        problem = random_problem(rng, 20, 32)
        inits = [rng.dirichlet(np.ones(32)) for _ in range(10)]
        assert_lanes_match_solve(
            problem, np.geomspace(1.0, 40.0, 10), inits,
            SolverConfig(epsilon=1e-10, norm="l1"),
        )

    def test_budget_exhausted_lane(self):
        problem = builtin_problem("fig1_like")
        # 4.9 and 17.2 sit near transitions and need thousands of
        # iterations; 50.0 and 30.0 converge in a few dozen.
        lanes = assert_lanes_match_solve(
            problem, [50.0, 4.9, 30.0, 17.2], config=SolverConfig(max_iterations=60)
        )
        assert [s.converged for s in lanes] == [True, False, True, False]
        assert lanes[1].iterations == lanes[3].iterations == 60

    def test_grid_spanning_two_chunks(self):
        rng = np.random.default_rng(23)
        n = m = 256
        problem = random_problem(rng, n, m)
        betas = np.geomspace(2.0, 200.0, 18)
        assert rdmod._LANE_CHUNK_BYTES // (8 * n * m) < len(betas)
        assert_lanes_match_solve(
            problem, betas, config=SolverConfig(epsilon=1e-6, max_iterations=200)
        )

    def test_overflowing_dead_column_leaves_the_lane_restricted(self):
        """At beta 1000 the dead representative's weight exp(1000) overflows.
        The iterated weights hold that column at zero, so the lane solves the
        restricted problem; the gap sums the overflowed factor in log space,
        to its true value log(0.5 e^1000)."""
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        with np.errstate(over="ignore"):
            lanes = solve_batch(problem, [1.0, 1000.0, 2.0], [None, [1.0, 0.0], None])
        restricted = lanes[1]
        assert restricted.converged and restricted.iterations == 1
        assert restricted.marginal.tolist() == [1.0, 0.0]
        assert restricted.encoder.tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert restricted.gap == 999.3068528194401
        for lane in (lanes[0], lanes[2]):
            assert lane.converged and np.all(np.isfinite(lane.marginal))

    def test_overflowing_dead_column_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]]), 1000.0,
                        init=[1.0, 0.0])
        assert sol.gap == 999.3068528194401

    def test_numerical_error_in_one_lane_is_raised(self):
        """A sub-normal starting mass overflows px / z in its lane's first
        step, and the batch raises at that step."""
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="^non-finite marginal at iteration 1$"):
            solve_batch(problem, [1.0, 1000.0, 2.0], [None, [1.0, 1e-310], None])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            solve_batch(binary_hamming(), [1.0, 2.0], [[0.5, 0.5]])

    def test_rejects_empty_betas(self):
        with pytest.raises(ValueError, match="empty"):
            solve_batch(binary_hamming(), [])

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            solve_batch(binary_hamming(), [1.0, np.nan])


class TestLeanLoop:
    """The solve loop checks only its stopping distance and writes into
    buffers; counts, bits and error messages are those of the old loop."""

    # The slowest point of the planar benchmark grid (every third point of
    # geomspace(50, 0.2, 420)), next to the {1} -> {1, 3} transition. The
    # count and the marginal's SHA-256 were recorded before the loop was
    # rewritten.
    CRITICAL_BETA = 0.45274789611904454
    CRITICAL_ITERATIONS = 80190
    CRITICAL_SHA256 = "1dda03cf400e0f3dbc944198cab8562c27b1d57d7743ac4a07bd29a57f9d12f2"

    def test_critical_solve_is_pinned(self):
        problem = builtin_problem("fig1_like")
        assert np.geomspace(50.0, 0.2, 420)[::3][119] == self.CRITICAL_BETA
        sol = solve(problem, self.CRITICAL_BETA, config=SolverConfig(epsilon=1e-9))
        assert sol.converged and sol.iterations == self.CRITICAL_ITERATIONS
        assert hashlib.sha256(sol.marginal.tobytes()).hexdigest() == self.CRITICAL_SHA256

    def test_lane_that_leaves_the_stack_last_is_its_standalone_solve(self):
        """The critical lane outlives the others and finishes on the
        single-lane path; the two lanes that stop early leave a stack that
        keeps running."""
        problem = builtin_problem("fig1_like")
        lanes = solve_batch(problem, [30.0, self.CRITICAL_BETA, 50.0],
                            config=SolverConfig(epsilon=1e-9))
        critical = lanes[1]
        assert max(lane.iterations for lane in lanes) == critical.iterations
        assert critical.iterations == self.CRITICAL_ITERATIONS
        digest = hashlib.sha256(critical.marginal.tobytes()).hexdigest()
        assert digest == self.CRITICAL_SHA256

    def test_non_finite_iterate_raises_at_its_first_step(self):
        """The old loop looked for NaN every 512 iterations and raised at 512
        here; the stopping distance turns non-finite in the first step."""
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="^non-finite marginal at iteration 1$"):
            solve(problem, 1000.0, init=[1.0, 1e-310])

    def test_vanishing_partition_function_keeps_its_message(self):
        """Representative 0 is the only one close to the massless symbol 1.
        It starts sub-normal, is flushed in the first step, and in the second
        symbol 1's partition function underflows to exactly zero."""
        problem = RdProblem(px=[0.5, 0.0, 0.5],
                            d=[[1.0, 0.0, 0.5], [0.0, 1.0, 1.0], [1.0, 0.5, 0.0]])
        init = [1e-310, 0.8, 0.2]
        assert ab_step(problem, init, 1000.0)[0] == 0.0
        with pytest.raises(NumericalError, match="^partition function vanished$"):
            solve(problem, 1000.0, init=init)
        with pytest.raises(NumericalError, match="^partition function vanished$"):
            solve_batch(problem, [1.0, 1000.0], [None, init])

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 7, 1), (3, 1, 4)])
    def test_aligned_empty(self, shape):
        """_aligned_rows, the one aligned allocator, gives count disjoint
        C-ordered float rows, each starting on a cache line."""
        for count in (1, 3):
            rows = rdmod._aligned_rows(count, shape)
            assert rows.shape == (count,) + shape
            for row in rows:
                assert row.shape == shape and row.dtype == np.float64
                assert row.flags.c_contiguous and row.ctypes.data % rdmod._CACHE_LINE == 0
            for row, after in zip(rows, rows[1:]):
                assert row.ctypes.data + row.nbytes <= after.ctypes.data

    def test_column_permuted_problem_iterates_the_step_map(self):
        """A column-permuted d is F-ordered, and BLAS rounds its products
        differently from a C-ordered copy's: the aligned weight stack keeps
        that layout, so solve stays bit for bit repeated ab_step."""
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 1.0, (64, 64))[:, rng.permutation(64)]
        problem = RdProblem(px=rng.dirichlet(np.ones(64)), d=d)
        assert problem.d.flags.f_contiguous and not problem.d.flags.c_contiguous
        init = rng.dirichlet(np.ones(64))
        for k, q in enumerate(ab_iterates(problem, init, 30.0, 4)[1:], 1):
            config = SolverConfig(max_iterations=k)
            np.testing.assert_array_equal(solve(problem, 30.0, init, config).marginal, q)
            lane = solve_batch(problem, [2.0, 30.0], [None, init], config)[1]
            np.testing.assert_array_equal(lane.marginal, q)

    def test_weights_and_buffers_stay_cache_aligned(self, monkeypatch):
        """Every step, before and after lanes leave the stack, reads weights
        and writes buffers that start on a cache line."""
        offsets = set()

        def recording(step, p, b, expw, buf):
            new = step(p, b)
            for a in (expw, buf.z, buf.r, new):
                offsets.add(a.ctypes.data % rdmod._CACHE_LINE)
            return new

        wrap_ba_steps(monkeypatch, recording)
        problem = builtin_problem("fig1_like")
        solve_batch(problem, [30.0, 2.0, 50.0], config=SolverConfig(epsilon=1e-6))
        assert offsets == {0}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
def test_batch_lane_is_a_standalone_solve(seed, fortran):
    """Each lane of a random batch, started from a Dirichlet draw with some
    exact zeros, gives the standalone solve's marginal, iteration count and
    convergence flag bit for bit, on C- and F-ordered d: the lanes still
    running move forward in the stack with their own layout."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    problem = random_problem(rng, n, m, fortran)
    betas = rng.uniform(0.0, 30.0, int(rng.integers(1, 7)))
    inits = [random_start(rng, m) for _ in betas]
    config = SolverConfig(epsilon=1e-9, max_iterations=1000)
    lanes = solve_batch(problem, betas, inits, config)
    for beta, init, lane in zip(betas, inits, lanes):
        alone = solve(problem, beta, init, config)
        assert lane.marginal.tobytes() == alone.marginal.tobytes()
        assert lane.iterations == alone.iterations
        assert lane.converged == alone.converged


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([1, 63, 64, 65, 129, 1100]),
       norm=st.sampled_from(["l1", "linf"]))
@example(seed=161361, budget=1100, norm="l1")
def test_solves_are_repeated_steps_across_block_edges(seed, budget, norm):
    """The stopping rule, tested once per block, stops where a test after
    every step does: solve and every solve_batch lane give the marginal,
    count and flag of repeated flushing BA steps on the start's weights bit
    for bit, at budgets that end blocks of one to 64 steps early or late.
    In the example, representative 1 is flushed at step 891; repeated
    ab_step shifts the weights over the smaller support from then on, and
    its marginal differs from budget 898 on."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    problem = random_problem(rng, int(rng.integers(1, 7)), m)
    betas = rng.uniform(0.0, 30.0, int(rng.integers(1, 6)))
    inits = [random_start(rng, m) for _ in betas]
    config = SolverConfig(epsilon=10.0 ** -rng.uniform(2.0, 10.0), norm=norm,
                          max_iterations=budget)
    lanes = solve_batch(problem, betas, inits, config)
    for beta, init, lane in zip(betas, inits, lanes):
        marginal, iterations, converged = stepped_solve(problem, init, beta, config)
        for sol in (lane, solve(problem, beta, init, config)):
            assert sol.marginal.tobytes() == marginal.tobytes()
            assert sol.iterations == iterations
            assert sol.converged == converged


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([63, 64, 65, 129, 1100]),
       norm=st.sampled_from(["l1", "linf"]))
def test_sub_normal_masses_are_flushed_inside_blocks(seed, budget, norm):
    """Starts hold masses of 1e-300 to 1e-290 on representatives whose
    distortion column is a live column's plus a margin, so near the fixed
    point each step shrinks them by exp(-beta * margin). Margins are drawn
    to make them sub-normal at random steps within the budget, so they are
    flushed inside blocks of up to 64 steps; an epsilon down to 1e-320 lets
    a solve run on until they are gone. solve and every solve_batch lane
    give stepped_solve's marginal, count and flag bit for bit, and a
    solve runs a block again only when it flushes, at most 63 extra steps
    per flushed mass."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    d = rng.uniform(0.0, 1.0, (n, m))
    tiny = rng.permutation(m)[:int(rng.integers(1, m))]
    live = rng.choice(np.setdiff1d(np.arange(m), tiny), tiny.size)
    beta = rng.uniform(2.0, 30.0)
    masses = 10.0 ** -rng.uniform(290.0, 300.0, tiny.size)
    flush_steps = rng.uniform(1.0, budget, tiny.size)
    d[:, tiny] = d[:, live] + np.log(masses / TINY_MASS) / (beta * flush_steps)
    problem = RdProblem(px=rng.dirichlet(np.ones(n)), d=d)
    betas = [beta, *beta * rng.uniform(0.5, 2.0, int(rng.integers(0, 4)))]
    inits = []
    for _ in betas:
        q = random_start(rng, m)
        q[live] += 0.1
        q[tiny] = masses
        q[q.argmax()] += 1.0 - q.sum()
        inits.append(q)
    config = SolverConfig(epsilon=10.0 ** -rng.uniform(4.0, 320.0), norm=norm,
                          max_iterations=budget)
    lanes = solve_batch(problem, betas, inits, config)
    for beta, init, lane in zip(betas, inits, lanes):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_ba_steps(patch)
            flushed = count_flushes(patch)
            alone = solve(problem, beta, init, config)
        marginal, iterations, converged = stepped_solve(problem, init, beta, config)
        for sol in (lane, alone):
            assert sol.marginal.tobytes() == marginal.tobytes()
            assert sol.iterations == iterations
            assert sol.converged == converged
        replays = calls[0] - unreplayed_calls(iterations, converged, budget)
        assert 0 <= replays <= 63 * flushed[0]


def test_a_block_runs_again_from_its_first_sub_normal_row():
    """Representative 1 starts at 1e-295 and shrinks by about e^-0.05 per
    step, so it turns sub-normal at step 583, inside the block of steps 565
    to 599. An epsilon below any normal distance keeps the solve running
    until the step after the flush. The solve takes stepped_solve's steps,
    bit for bit, and runs the rest of that block again once."""
    problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 0.01], [0.2, 0.21]])
    init = [1.0 - 1e-295, 1e-295]
    config = SolverConfig(epsilon=1e-320)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_ba_steps(patch)
        flushed = count_flushes(patch)
        sol = solve(problem, 5.0, init, config)
    marginal, iterations, converged = stepped_solve(problem, init, 5.0, config)
    assert sol.marginal.tobytes() == marginal.tobytes() and marginal[1] == 0.0
    assert (sol.iterations, sol.converged) == (iterations, True)
    assert iterations == 584 and block_of(iterations) == (565, 599)
    assert flushed[0] == 1 and calls[0] == 599 + (599 - 583)


def test_negative_zero_start_mass_reads_zero():
    """The first step's flush turned a -0.0 start mass into 0.0. The block
    loop flushes only positive sub-normals, so a solve makes the start's
    -0.0 masses 0.0 first; a -0.0 would otherwise stay through every step."""
    problem = builtin_problem("fig1_like")
    init = np.array([0.5, -0.0, 0.25, 0.25])
    config = SolverConfig(epsilon=1e-9)
    marginal = stepped_solve(problem, init, 10.0, config)[0]
    assert marginal[1] == 0.0 and not np.signbit(marginal[1])
    for sol in (solve(problem, 10.0, init, config),
                solve_batch(problem, [10.0, 5.0], [init, init], config)[0]):
        assert sol.marginal.tobytes() == marginal.tobytes()


def wrap_ba_steps(monkeypatch, wrapper) -> None:
    """Have every BA map that a solve or ab_step binds step through
    wrapper(step, p, b, expw, buf), where expw and buf are the map's
    weights and buffers."""
    bind = rdmod._ba_map

    def bound(expw, px, buf):
        step = bind(expw, px, buf)
        return lambda p, b: wrapper(step, p, b, expw, buf)

    monkeypatch.setattr(rdmod, "_ba_map", bound)


def count_ba_steps(monkeypatch) -> list:
    """Count the BA steps taken. Returns the one-item list that holds the
    count."""
    calls = [0]

    def counting(step, p, b, expw, buf):
        calls[0] += 1
        return step(p, b)

    wrap_ba_steps(monkeypatch, counting)
    return calls


def poison_step(monkeypatch, call: int, lane=None) -> list:
    """Make the call-th BA step (counted from 1) write NaN into its output,
    or only into one lane's row of a stack. Returns the one-item list that
    counts the steps taken."""
    calls = [0]

    def poisoned(step, p, b, expw, buf):
        new = step(p, b)
        calls[0] += 1
        if calls[0] == call:
            (new if lane is None else new[lane]).fill(np.nan)
        return new

    wrap_ba_steps(monkeypatch, poisoned)
    return calls


class TestBlockEdges:
    """A block of steps runs past a lane's stopping row, and only rows up to
    it count; an error names the iteration it happened in."""

    CONFIG = SolverConfig(epsilon=1e-9)

    def test_block_length(self):
        """One step per block until 16 steps are done, then one step per 16
        taken, up to 64, and never past the budget."""
        lengths = [rdmod._block_length(done, 10**7) for done in (0, 15, 16, 47, 48, 1023, 1024, 5000)]
        assert lengths == [1, 1, 1, 2, 3, 63, 64, 64]
        assert rdmod._block_length(5000, 5010) == 10

    def test_nan_after_the_stopping_row_is_ignored(self, monkeypatch):
        problem = builtin_problem("fig1_like")
        clean = solve(problem, 10.0, config=self.CONFIG)
        assert clean.converged and block_of(clean.iterations)[1] > clean.iterations
        poison_step(monkeypatch, clean.iterations + 1)
        poisoned = solve(problem, 10.0, config=self.CONFIG)
        assert poisoned.iterations == clean.iterations
        assert poisoned.marginal.tobytes() == clean.marginal.tobytes()

    def test_nan_after_a_lanes_stopping_row_is_ignored_in_a_stack(self, monkeypatch):
        """Lane 0 stops inside a block that lane 1 runs to its end; its rows
        after the stop stay in the stack until then."""
        problem = builtin_problem("fig1_like")
        betas = [10.0, 4.9]
        clean = solve_batch(problem, betas, config=self.CONFIG)
        first = clean[0].iterations
        assert block_of(first)[1] > first and clean[1].iterations > block_of(first)[1]
        poison_step(monkeypatch, first + 1, lane=0)
        for before, after in zip(clean, solve_batch(problem, betas, config=self.CONFIG)):
            assert after.iterations == before.iterations
            assert after.marginal.tobytes() == before.marginal.tobytes()

    def test_nan_raises_at_its_own_iteration(self, monkeypatch):
        """Iteration 67 opens a block that runs on to step 70 before its
        distances are read."""
        assert block_of(67) == (67, 70)
        problem = builtin_problem("fig1_like")
        poison_step(monkeypatch, 67)
        with pytest.raises(NumericalError, match="^non-finite marginal at iteration 67$"):
            solve(problem, 4.9, config=self.CONFIG)

    def test_nan_in_one_lane_raises_at_its_own_iteration(self, monkeypatch):
        problem = builtin_problem("fig1_like")
        poison_step(monkeypatch, 67, lane=1)
        with pytest.raises(NumericalError, match="^non-finite marginal at iteration 67$"):
            solve_batch(problem, [4.9, 17.2], config=self.CONFIG)

    @pytest.mark.parametrize("budget", [1, 64, 65, 130, 1100])
    def test_block_is_capped_at_the_budget(self, monkeypatch, budget):
        """A solve that cannot converge takes exactly max_iterations steps."""
        problem = builtin_problem("fig1_like")
        calls = poison_step(monkeypatch, 0)
        sol = solve(problem, 4.9, config=SolverConfig(max_iterations=budget))
        assert not sol.converged and sol.iterations == calls[0] == budget


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    """Same shape, strides and bytes in memory order."""
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes(order="A") == want.tobytes(order="A")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
def test_encoder_is_derived_bit_for_bit(seed, fortran):
    """A solution derives its encoder from (problem, beta, marginal) on each
    read, with the oracle's bytes and strides: for solve and every
    solve_batch lane, C- or F-ordered d, starts with exact zeros and betas
    high enough for a dead column's factor to overflow."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    d = rng.uniform(0, 1, size=(n, m))
    problem = RdProblem(px=rng.dirichlet(np.ones(n)),
                        d=np.asfortranarray(d) if fortran else d)
    betas = [1000.0 if rng.random() < 0.2 else rng.uniform(0.0, 30.0)
             for _ in range(int(rng.integers(1, 6)))]
    inits = [random_start(rng, m) for _ in betas]
    config = SolverConfig(max_iterations=500)
    lanes = solve_batch(problem, betas, inits, config)
    for beta, init, lane in zip(betas, inits, lanes):
        for sol in (lane, solve(problem, beta, init, config)):
            first = sol.encoder
            assert_same_array(first, encoder_from_marginal(problem, sol.marginal, beta))
            assert_same_array(sol.encoder, first)


class TestDerivedEncoder:
    def test_overflowing_dead_column_reads_zero(self):
        """From [1, 0] at beta 1000 the dead column's factor is exp(1000) on
        the symbol it reproduces exactly; its encoder column is still 0."""
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        sol = solve(problem, 1000.0, init=[1.0, 0.0])
        assert sol.encoder.tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert_same_array(sol.encoder, encoder_from_marginal(problem, sol.marginal, 1000.0))

    def test_solution_keeps_no_encoder(self):
        problem = random_problem(np.random.default_rng(3), 5, 4)
        sol = solve(problem, 4.0)
        assert sol.problem is problem
        assert "encoder" not in vars(sol)
        assert sol.encoder is not sol.encoder
        with pytest.raises(ValueError, match="read-only"):
            sol.marginal[0] = 1.0
        assert "encoder" not in repr(sol) and "problem" not in repr(sol)

    def test_json_fields_keep_their_order(self):
        assert rdmod.json_fields(RdSolution) == (
            "beta", "marginal", "encoder", "rate", "distortion", "iterations",
            "converged", "gap",
        )

    def test_json_form_carries_the_encoder(self):
        sol = solve(binary_hamming(), 2.0)
        assert sol.to_json_dict()["encoder"] == sol.encoder.tolist()


class TestRecordEquality:
    def test_equal_solves_compare_equal(self):
        """The generated __eq__ raised ValueError here: it compared field
        tuples holding arrays, whose comparison has no truth value."""
        a, b = solve(binary_hamming(), 2.0), solve(binary_hamming(), 2.0)
        assert a is not b and a == b and not a != b
        assert binary_hamming() == binary_hamming()

    def test_a_changed_field_compares_unequal(self):
        a = solve(binary_hamming(), 2.0)
        assert a != solve(binary_hamming(), 3.0)
        assert a != replace(a, marginal=np.array([0.25, 0.75]))
        assert a != replace(a, marginal=a.marginal[:1].copy())
        assert a != replace(a, iterations=a.iterations + 1)
        assert binary_hamming() != binary_hamming(0.7)
        assert a != a.problem and a.problem != a


class TestDualityGap:
    def test_zero_at_the_closed_form_optimum(self):
        sol = solve(binary_hamming(0.7), 2.0, config=SolverConfig(epsilon=1e-13))
        assert abs(sol.gap) < 1e-12

    def test_positive_off_the_optimum(self):
        """A marginal pinned to one representative is a fixed point that is
        not optimal once beta is past the first transition."""
        problem = builtin_problem("fig1_like")
        pinned = solve(problem, 30.0, init=[0.0, 1.0, 0.0, 0.0])
        assert pinned.converged and pinned.gap > 1.0

    def test_serialized(self):
        sol = solve(binary_hamming(), 1.0)
        assert sol.to_json_dict()["gap"] == sol.gap

    @pytest.mark.parametrize("beta", [700.0, 1000.0])
    def test_overflowing_dead_factor_is_summed_in_log_space(self, beta):
        """The dead representative's factor is exp(beta) at the symbol it
        reproduces exactly; from beta 710 on it overflows. The massless
        middle symbol gives 0 * inf = NaN in the linear sum."""
        problem = RdProblem(px=[0.5, 0.0, 0.5], d=[[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        with np.errstate(over="ignore"):
            sol = solve(problem, beta, init=[1.0, 0.0])
        assert sol.marginal.tolist() == [1.0, 0.0]
        assert sol.gap == pytest.approx(np.log(0.5) + beta, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
def test_partition_function_is_the_masked_product(seed, fortran):
    """Z, taken from every weight, has the bits of the product of the
    weights with dead columns masked to 0, on C- and F-ordered d, with
    dead masses that are 0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    d = rng.uniform(0, 1, size=(n, m))
    problem = RdProblem(px=rng.dirichlet(np.ones(n)), d=np.asfortranarray(d) if fortran else d)
    q = random_start(rng, m)
    q[q == 0] = rng.choice([0.0, -0.0], int((q == 0).sum()))
    beta = rng.uniform(0.0, 600.0)
    exponents, dead = rdmod._shifted_exponents(problem, q, beta)
    want = np.where(dead, 0.0, np.exp(exponents)) @ q
    assert rdmod._boltzmann(problem, q, beta)[2].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
def test_partition_function_masks_an_overflowed_dead_column(seed, fortran):
    """A dead column that reproduces some symbols far better than the live
    ones gets a factor of inf at beta 800, and inf times its zero mass is
    NaN in the product of all the weights; Z is then taken again with the
    dead columns masked, with that product's bits and no warning."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 20)), int(rng.integers(2, 20))
    d = rng.uniform(1.0, 2.0, size=(n, m))
    dead = rng.permutation(m)[:int(rng.integers(1, m))]
    q = rng.dirichlet(np.ones(m))
    q[dead] = 0.0
    q /= q.sum()
    d[:, dead] = rng.uniform(0.0, 0.1, size=(n, dead.size))
    problem = RdProblem(px=rng.dirichlet(np.ones(n)), d=np.asfortranarray(d) if fortran else d)
    exponents, mask = rdmod._shifted_exponents(problem, q, 800.0)
    with np.errstate(over="ignore", invalid="ignore"):
        expw = np.exp(exponents)
        assert not np.isfinite(expw @ q).all()
    want = np.where(mask, 0.0, expw) @ q
    assert rdmod._boltzmann(problem, q, 800.0)[2].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
def test_overflowed_gap_matches_the_whole_exponent_array(seed, fortran):
    """Some dead columns reproduce every symbol about 2 better than the live
    ones, so their factors overflow at beta 700 to 1000, and some source
    symbols may be massless: the gap's linear sums read inf or NaN there,
    and it re-sums those columns in log space; the other dead columns stay
    finite. Distortions within a column kind differ by less than 3 / beta,
    so the log-space terms of many rows are comparable and no live weight
    underflows. The factors at a start and the gap of a short solve from it
    have the bits of oracles.factors_and_gap, which keeps every exponent,
    on C- and F-ordered d."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 40)), int(rng.integers(2, 20))
    beta = rng.uniform(700.0, 1000.0)
    d = 2.0 + rng.uniform(0.0, 3.0, size=(n, m)) / beta
    dead = rng.permutation(m)[:int(rng.integers(1, m))]
    overflow = dead[:int(rng.integers(1, dead.size + 1))]
    d[:, overflow] -= 2.0
    d[:, np.setdiff1d(dead, overflow)] += 1.0
    px = rng.dirichlet(np.ones(n))
    px[rng.random(n) < 0.3] = 0.0
    px[rng.integers(n)] += 1.0
    problem = RdProblem(px=px / px.sum(), d=np.asfortranarray(d) if fortran else d)
    q = rng.dirichlet(np.ones(m))
    q[dead] = 0.0
    q /= q.sum()
    factors, _ = factors_and_gap(problem, q, beta)
    assert_same_array(boltzmann_factors(problem, q, beta), factors)
    with np.errstate(over="ignore"):
        sol = solve(problem, beta, init=q, config=SolverConfig(max_iterations=5))
    _, gap = factors_and_gap(problem, sol.marginal, beta)
    assert np.isfinite(gap)
    assert np.float64(sol.gap).tobytes() == np.float64(gap).tobytes()


def test_overflowed_partition_function_raises_without_a_warning():
    """Masses of 1e308 overflow Z both from every weight and with the dead
    columns masked; the masked product ran outside np.errstate and warned
    before the error."""
    with pytest.raises(NumericalError, match="^partition function underflowed or overflowed$"):
        boltzmann_factors(planar_four_point(), [1e308] * 4, 1.0)


def test_overflowing_live_factor_raises_without_a_warning():
    """Representative 1 is live at mass 5e-324 and the only one close to
    symbol 1, so that symbol's partition function is 5e-324 and its factor
    1 / Z overflows: the division warned and left inf in a live column."""
    problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
    for evaluate in (boltzmann_factors, jacobian):
        with pytest.raises(NumericalError,
                           match="^partition function underflowed or overflowed$"):
            evaluate(problem, [1.0, 5e-324], 1000.0)


def test_overflowing_dead_factor_is_inf_without_a_warning():
    """Symbol 1's Z is 1e-300, and the dead representative 2's finite weight
    e^100 divided by it overflows: that division warned."""
    problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0, 1.0], [2.0, 1.0, 0.9]])
    a = boltzmann_factors(problem, [1.0 - 1e-300, 1e-300, 0.0], 1000.0)
    assert np.isfinite(a[:, :2]).all() and a[1, 2] == np.inf


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 4), (6, 6), (3, 5)])
def test_weight_stack_is_laid_out_as_np_stack(shape, fortran):
    """Each lane's weights are written straight into the stack, laid out as
    np.stack lays out that lane: with d's strides and the bytes of
    _iteration_weights, which decide the bits of the BA products. Every
    lane starts on a cache line; no shape here has n * m a multiple of 8,
    so a stack of unpadded lanes would start all but lane 0 off a line."""
    rng = np.random.default_rng(sum(shape))
    d = rng.uniform(0, 1, size=shape)
    problem = RdProblem(px=rng.dirichlet(np.ones(shape[0])),
                        d=np.asfortranarray(d) if fortran else d)
    betas = [2.0, 30.0, 0.0]
    starts = [random_start(rng, shape[1]) for _ in betas]
    stack = rdmod._weight_stack(problem, betas, starts)
    assert len(stack) == len(betas)
    for lane, p, beta in zip(stack, starts, betas):
        assert lane.strides == problem.d.strides
        assert_same_array(lane, rdmod._iteration_weights(problem, p, beta))
        assert lane.ctypes.data % rdmod._CACHE_LINE == 0


@pytest.mark.parametrize("fortran", [False, True])
def test_rd_evaluations_hold_one_array_beyond_the_problem(fortran):
    """Scoring a solution and evaluating the Jacobian each hold one n x m
    float array beyond the problem, as traced by tracemalloc, which sees
    numpy's buffers: the factors are exponentiated and divided in place
    over the shifted exponents, and scoring writes the encoder and then
    encoder * d over them. A 160 x 160 problem started on half its columns
    keeps the others dead at beta 5. Each bound leaves room for the 64 KiB
    buffer of numpy's broadcast subtract, a third of an array here:
    rd._solution and jacobian at 1.5 arrays (2.34 when the exponents, or
    the product encoder * d, were a second array), a 2-lane weight stack
    build at 2.5 (3.34 when each lane's weights were made apart and
    copied in), and a solve and the spectrum at its marginal at 2.5, which
    leaves room for the block history (a solve peaks at 2.05)."""
    n = m = 160
    rng = np.random.default_rng(5)
    d = rng.uniform(0, 1, size=(n, m))
    problem = RdProblem(px=rng.dirichlet(np.ones(n)), d=np.asfortranarray(d) if fortran else d)
    init = np.zeros(m)
    init[:m // 2] = 2.0 / m

    def traced_peak(evaluate):
        """evaluate's result, and the traced peak it reached in n x m arrays."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = evaluate()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return result, peak / (n * m * 8)

    sol, solve_peak = traced_peak(lambda: solve(problem, 5.0, init))
    q = sol.marginal
    scored, solution_peak = traced_peak(
        lambda: rdmod._solution(problem, 5.0, q, sol.iterations, sol.converged))
    _, jacobian_peak = traced_peak(lambda: jacobian(problem, q, 5.0))
    report, spectrum_peak = traced_peak(lambda: eigen_spectrum(jacobian(problem, q, 5.0)))
    _, stack_peak = traced_peak(lambda: rdmod._weight_stack(problem, [5.0, 50.0], [init, q]))
    assert sol.converged and (q[m // 2:] == 0).all()
    assert scored == sol
    assert report.kernel_dim >= m // 2
    assert solution_peak <= 1.5 and jacobian_peak <= 1.5
    assert stack_peak <= 2.5
    assert solve_peak <= 2.5 and spectrum_peak <= 2.5


@pytest.mark.parametrize("fortran", [False, True])
def test_batch_holds_one_weight_stack_as_lanes_leave(fortran):
    """Lanes that stop leave the weight stack in place: the still-running
    lanes move forward in it, so a batch holds one stack of weights from
    start to finish. Eight lanes on a 160 x 160 problem stop at different
    iterations; the traced peak of solve_batch stays within 2.5 stacks,
    which leaves room for the block history and the distance buffers.
    Copying the running lanes to a new stack at each exit peaked at 3.2."""
    n = m = 160
    rng = np.random.default_rng(5)
    d = rng.uniform(0, 1, size=(n, m))
    problem = RdProblem(px=rng.dirichlet(np.ones(n)), d=np.asfortranarray(d) if fortran else d)
    betas = np.geomspace(2.0, 60.0, 8)
    stack = len(betas) * n * m * 8
    tracemalloc.start()
    try:
        lanes = solve_batch(problem, betas, config=SolverConfig(epsilon=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(lane.converged for lane in lanes)
    assert len({lane.iterations for lane in lanes}) > 1
    assert peak <= 2.5 * stack
