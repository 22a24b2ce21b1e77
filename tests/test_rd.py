"""Unit tests for the rate-distortion problem type and the alternating solver."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ab_iterates,
    block_of,
    binary_hamming_distortion,
    binary_hamming_rate,
    encoder_from_marginal,
    lagrangian,
    residual,
    stepped_solve,
)
from rdspectral import (
    NumericalError,
    RdProblem,
    SolverConfig,
    ab_step,
    binary_hamming,
    mutual_information,
    solve,
    solve_batch,
)
from rdspectral import rd as rdmod
from rdspectral.problems import builtin_problem, dump_problem, load_problem


def random_problem(rng, n=None, m=None):
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(2, 7))
    px = rng.dirichlet(np.ones(n))
    d = rng.uniform(0, 1, size=(n, m))
    return RdProblem(px=px, d=d)


class TestRdProblemValidation:
    def test_rejects_negative_distortion(self):
        with pytest.raises(ValueError, match="non-negative"):
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
        from rdspectral import planar_four_point

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
        from rdspectral import planar_four_point

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
        a = rdmod._aligned_empty(shape)
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.c_contiguous and a.ctypes.data % rdmod._CACHE_LINE == 0

    def test_aligned_copy_keeps_the_layout(self):
        a = np.stack([np.asfortranarray(np.arange(12.0).reshape(3, 4))] * 2)
        b = rdmod._aligned_copy(a)
        assert b.strides == a.strides and b.ctypes.data % rdmod._CACHE_LINE == 0
        np.testing.assert_array_equal(b, a)

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
        update = rdmod._ba_update

        def recording(expw, px, p, buf, out):
            for a in (expw, buf.z_out, buf.r, buf.delta, out):
                offsets.add(a.ctypes.data % rdmod._CACHE_LINE)
            return update(expw, px, p, buf, out)

        monkeypatch.setattr(rdmod, "_ba_update", recording)
        problem = builtin_problem("fig1_like")
        solve_batch(problem, [30.0, 2.0, 50.0], config=SolverConfig(epsilon=1e-6))
        assert offsets == {0}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_lane_is_a_standalone_solve(seed):
    """Each lane of a random batch, started from a Dirichlet draw with some
    exact zeros, gives the standalone solve's marginal, iteration count and
    convergence flag bit for bit."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    problem = random_problem(rng, n, m)
    betas = rng.uniform(0.0, 30.0, int(rng.integers(1, 7)))
    inits = []
    for _ in betas:
        q = rng.dirichlet(np.ones(m))
        dead = rng.random(m) < 0.3
        dead[rng.integers(m)] = False
        q[dead] = 0.0
        inits.append(q / q.sum())
    config = SolverConfig(epsilon=1e-9, max_iterations=1000)
    lanes = solve_batch(problem, betas, inits, config)
    for beta, init, lane in zip(betas, inits, lanes):
        alone = solve(problem, beta, init, config)
        assert lane.marginal.tobytes() == alone.marginal.tobytes()
        assert lane.iterations == alone.iterations
        assert lane.converged == alone.converged


def random_start(rng, m):
    """A Dirichlet draw with each coordinate zeroed with probability 0.3,
    keeping at least one, renormalized."""
    q = rng.dirichlet(np.ones(m))
    dead = rng.random(m) < 0.3
    dead[rng.integers(m)] = False
    q[dead] = 0.0
    return q / q.sum()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([1, 63, 64, 65, 129, 1100]),
       norm=st.sampled_from(["l1", "linf"]))
def test_solves_are_repeated_steps_across_block_edges(seed, budget, norm):
    """The stopping rule, tested once per block, stops where a test after
    every step does: solve and every solve_batch lane give repeated
    ab_step's marginal, count and flag bit for bit, at budgets that end
    blocks of one to 64 steps early or late."""
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


def poison_step(monkeypatch, call: int, lane=None) -> list:
    """Make the call-th BA step (counted from 1) write NaN into its output,
    or only into one lane's row of a stack. Returns the one-item list that
    counts the steps taken."""
    update, calls = rdmod._ba_update, [0]

    def poisoned(expw, px, p, buf, out):
        new = update(expw, px, p, buf, out)
        calls[0] += 1
        if calls[0] == call:
            (out if lane is None else out[lane]).fill(np.nan)
        return new

    monkeypatch.setattr(rdmod, "_ba_update", poisoned)
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
