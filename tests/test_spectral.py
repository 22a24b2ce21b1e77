"""Unit tests for the fixed-point Jacobian and its spectrum."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    eigenvalues_nonsymmetric,
    jacobian_finite_difference,
    jacobian_matrix,
    jacobian_product_form,
    kernel_dimension_check,
    random_problem,
    symmetrized_support_block,
)
from rdspectral import (
    FixedPointJacobian,
    NumericalError,
    RdProblem,
    SolverConfig,
    binary_hamming,
    eigen_spectrum,
    jacobian,
    planar_four_point,
    predicted_iterations,
    solve,
)
from rdspectral.probability import DEFAULT_ZERO_TOL
from rdspectral.spectral import NEGATIVE_EIGENVALUE_TOL

TIGHT = SolverConfig(epsilon=1e-13)


def solved_interior_instances(seed, count, n_max=6, m_max=6):
    """Converged full-support solutions of random problems.

    Scans random (problem, beta) draws, keeping those whose solution keeps
    every representative alive; beta is drawn large enough that interior
    solutions are common.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        problem = random_problem(rng, m=int(rng.integers(2, m_max + 1)))
        beta = float(rng.uniform(5, 40))
        sol = solve(problem, beta, config=TIGHT)
        if sol.converged and np.all(sol.marginal > 1e-3):
            out.append((problem, sol))
    return out


class TestJacobianForms:
    def test_non_finite_matrix_raises(self):
        """Finite factors whose square overflows: a dead representative far
        cheaper than the live one at a large beta."""
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        with np.errstate(all="ignore"):
            jac = jacobian(problem, [1.0, 0.0], 500.0, fixed_point_tol=np.inf)
            assert np.all(np.isfinite(jac.factors))
            with pytest.raises(NumericalError, match="non-finite"):
                jacobian_matrix(jac)

    @pytest.mark.parametrize("px, d", [
        ([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]),
        ([0.5, 0.0, 0.5], [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]),
    ])
    def test_overflowing_dead_factor(self, px, d):
        """At beta 1000 the dead representative's factor overflows, and
        against a massless symbol it meets a zero mass; only the live
        column enters the spectrum, and the dead one's residual is 0."""
        problem = RdProblem(px=px, d=d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem, 1000.0, init=[1.0, 0.0])
            jac = jacobian(problem, sol.marginal, 1000.0)
            report = eigen_spectrum(jac)
        assert np.isinf(jac.factors[:, 1]).any() and jac.residual_linf == 0.0
        np.testing.assert_allclose(report.eigenvalues, [0.0, 1.0], rtol=0, atol=1e-15)
        assert report.kernel_dim == 1

    def test_beta_zero_is_rank_one(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, 3, 4)
        q = rng.dirichlet(np.ones(4))
        jac = jacobian(problem, q, 0.0)
        for row in jacobian_matrix(jac):
            np.testing.assert_allclose(row, q, atol=1e-14)

    def test_single_representative(self):
        problem = RdProblem(px=[0.4, 0.6], d=[[0.1], [0.9]])
        jac = jacobian(problem, np.array([1.0]), 2.0)
        np.testing.assert_allclose(jacobian_matrix(jac), [[1.0]], atol=1e-14)

    def test_channel_product_form_agrees(self):
        """The conditional-probability product reproduces the direct formula."""
        instances = solved_interior_instances(seed=21, count=6)
        for problem, sol in instances:
            jac = jacobian(problem, sol.marginal, sol.beta)
            alt = jacobian_product_form(problem, sol.marginal, sol.beta)
            np.testing.assert_allclose(jacobian_matrix(jac), alt, atol=1e-12)

    def test_rows_sum_to_one_at_full_support_solutions(self):
        instances = solved_interior_instances(seed=22, count=6)
        for problem, sol in instances:
            jac = jacobian(problem, sol.marginal, sol.beta)
            np.testing.assert_allclose(
                jacobian_matrix(jac).sum(axis=1), 1.0, atol=1e-10
            )

    def test_zero_column_iff_zero_mass(self):
        problem = planar_four_point()
        q = np.array([0.55, 0.45, 0.0, 0.0])
        jac = jacobian(problem, q, 2.0, fixed_point_tol=float("inf"))
        matrix = jacobian_matrix(jac)
        assert np.all(matrix[:, 2:] == 0.0)
        assert np.all(np.abs(matrix[:, :2]).max(axis=0) > 1e-12)

    def test_warns_away_from_fixed_points(self):
        problem = binary_hamming(0.7)
        with pytest.warns(UserWarning, match="non-fixed"):
            jacobian(problem, np.array([0.5, 0.5]), 5.0)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6, -float("inf")])
    def test_rejects_nan_or_negative_fixed_point_tol(self, tol):
        """A NaN tolerance would turn the warning off without a word: here the
        residual is 0.32."""
        message = r"^fixed_point_tol must be non-negative \(inf skips the check\)$"
        with pytest.raises(ValueError, match=message):
            jacobian(binary_hamming(0.8), [0.3, 0.7], 2.0, fixed_point_tol=tol)


class TestFiniteDifferenceOracle:
    def test_beta_zero_matches_rank_one(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng, 3, 3)
        q = rng.dirichlet(np.ones(3) * 5)
        fd = jacobian_finite_difference(problem, q, 0.0, step=1e-6)
        for row in fd:
            np.testing.assert_allclose(row, q, atol=1e-9)

    def test_agrees_with_analytic_at_solutions(self):
        instances = solved_interior_instances(seed=23, count=5)
        for problem, sol in instances:
            jac = jacobian(problem, sol.marginal, sol.beta)
            fd = jacobian_finite_difference(problem, sol.marginal, sol.beta)
            assert np.max(np.abs(fd - jacobian_matrix(jac))) < 1e-6

    def test_single_representative(self):
        problem = RdProblem(px=[1.0], d=[[0.3]])
        fd = jacobian_finite_difference(problem, np.array([1.0]), 1.5, step=1e-4)
        np.testing.assert_allclose(fd, [[1.0]], atol=1e-7)

    def test_rejects_boundary_points(self):
        problem = planar_four_point()
        with pytest.raises(ValueError, match="interior"):
            jacobian_finite_difference(
                problem, np.array([0.5, 0.5, 0.0, 0.0]), 1.0
            )

    def test_rejects_oversized_step(self):
        problem = binary_hamming()
        with pytest.raises(ValueError, match="step"):
            jacobian_finite_difference(problem, np.array([0.5, 0.5]), 1.0, step=0.1)


class TestEigenSpectrum:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 1.0, 2.0])
    def test_rejects_bad_zero_tol(self, tol):
        jac = jacobian(binary_hamming(), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="zero_tol"):
            eigen_spectrum(jac, zero_tol=tol)

    def test_accepts_zero_zero_tol(self):
        """At zero_tol = 0 the dead representatives' exact zeros are kernel
        directions too: the kernel was counted as the eigenvalues below
        zero_tol, which no zero is, and read 0 here."""
        jac = jacobian(planar_four_point(), [0.5, 0.5, 0.0, 0.0], 1.0,
                       fixed_point_tol=np.inf)
        assert eigen_spectrum(jac, zero_tol=0.0).kernel_dim == 2

    def test_beta_zero_spectrum(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, 4, 5)
        q = rng.dirichlet(np.ones(5) * 3)
        report = eigen_spectrum(jacobian(problem, q, 0.0))
        np.testing.assert_allclose(report.eigenvalues[:-1], 0.0, atol=1e-10)
        np.testing.assert_allclose(report.eigenvalues[-1], 1.0, atol=1e-10)

    def test_single_representative(self):
        problem = RdProblem(px=[0.4, 0.6], d=[[0.1], [0.9]])
        report = eigen_spectrum(jacobian(problem, np.array([1.0]), 2.0))
        np.testing.assert_allclose(report.eigenvalues, [1.0], atol=1e-12)
        assert report.kernel_dim == 0
        assert report.lambda_max == 0.0
        assert report.predicted_rate == 0.0

    def test_empty_support_is_all_kernel(self):
        """A zero_tol above every mass leaves no support: the spectrum is the
        dead block's zeros alone, and the point reads as critical."""
        report = eigen_spectrum(jacobian(binary_hamming(), [0.5, 0.5], 1.0), zero_tol=0.9)
        assert report.eigenvalues.tolist() == [0.0, 0.0]
        assert report.kernel_dim == 2
        assert np.isnan(report.lambda0) and np.isnan(report.lambda_max)
        assert report.predicted_rate == np.inf and report.at_criticality

    def test_exact_zero_coordinate_gives_kernel_dimension(self):
        """A dead representative contributes an exact zero eigenvalue, and the
        dense nonsymmetric eigensolver sees the same spectrum."""
        problem = RdProblem(
            px=[0.5, 0.3, 0.2],
            d=[[0.0, 0.6, 0.9], [0.7, 0.0, 0.4], [0.8, 0.5, 0.0]],
        )
        grid = np.geomspace(12.0, 1.2, 60)
        carry = None
        boundary = None
        for beta in grid:
            init = None if carry is None else np.where(carry > 1e-10, carry, 0.0)
            if init is not None:
                init = init / init.sum()
            sol = solve(problem, beta, init=init, config=TIGHT)
            carry = sol.marginal
            if np.any(sol.marginal == 0.0):
                boundary = sol
                break
        assert boundary is not None, "no boundary solution found on the grid"
        jac = jacobian(problem, boundary.marginal, boundary.beta)
        report = eigen_spectrum(jac)
        dead = int(np.sum(boundary.marginal == 0.0))
        assert report.kernel_dim == dead
        dense = eigenvalues_nonsymmetric(jac)
        assert np.max(np.abs(dense.imag)) < 1e-10
        np.testing.assert_allclose(
            np.sort(dense.real), report.eigenvalues, atol=1e-8
        )

    def test_eigenvalue_below_the_negative_tolerance_raises(self, monkeypatch):
        """A Gram matrix has no negative eigenvalue, so one below
        NEGATIVE_EIGENVALUE_TOL is a numerical failure. The eigensolver's
        result is substituted, as roundoff that large depends on the BLAS
        build; an eigenvalue at the tolerance itself is a soft mode."""
        jac = jacobian(binary_hamming(), np.array([0.5, 0.5]), 1.0)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda gram: np.array([-2e-8, 1.0]))
        with pytest.raises(NumericalError, match=re.escape(
                "eigenvalue -2e-08 below -1e-08; "
                "the evaluation point is inconsistent with a fixed point")):
            eigen_spectrum(jac)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda gram: np.array([NEGATIVE_EIGENVALUE_TOL, 1.0]))
        report = eigen_spectrum(jac)
        assert report.kernel_dim == 1 and report.lambda0 == 1.0

    def test_spectrum_range_and_symmetry(self):
        instances = solved_interior_instances(seed=24, count=8)
        for problem, sol in instances:
            s = symmetrized_support_block(problem, sol.marginal, sol.beta)
            assert np.max(np.abs(s - s.T)) <= 1e-10
            report = eigen_spectrum(jacobian(problem, sol.marginal, sol.beta))
            assert report.eigenvalues.min() >= -1e-8
            assert report.eigenvalues.max() <= 1.0 + 1e-8

    def test_nonsymmetric_oracle_agreement(self):
        instances = solved_interior_instances(seed=25, count=6, m_max=5)
        for problem, sol in instances:
            jac = jacobian(problem, sol.marginal, sol.beta)
            report = eigen_spectrum(jac)
            dense = eigenvalues_nonsymmetric(jac)
            np.testing.assert_allclose(
                np.sort(dense.real), report.eigenvalues, atol=1e-7
            )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_holds_every_representative_at_or_below_zero_tol(seed):
    """Solved to epsilon 1e-13 from a start with exact zeros, a point's
    kernel has at least one direction per representative at or below
    zero_tol, and no other unless the point is critical, at zero_tol 0 as
    at the default. Draws that do not converge within the budget are
    dropped."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    problem = random_problem(rng, int(rng.integers(1, 6)), m)
    start = rng.dirichlet(np.ones(m))
    start[rng.permutation(m)[:int(rng.integers(1, m))]] = 0.0
    sol = solve(problem, float(rng.uniform(0.0, 30.0)), start / start.sum(),
                SolverConfig(epsilon=1e-13, max_iterations=20_000))
    assume(sol.converged)
    jac = jacobian(problem, sol.marginal, sol.beta)
    for zero_tol in (0.0, DEFAULT_ZERO_TOL):
        report = eigen_spectrum(jac, zero_tol=zero_tol)
        below = int(np.count_nonzero(sol.marginal <= zero_tol))
        assert report.kernel_dim >= below
        assert report.kernel_dim == below or report.at_criticality


class TestJacobianMarginal:
    def test_a_later_write_to_the_callers_array_changes_nothing(self):
        """The Jacobian used to keep the caller's array, so a later write
        changed what eigen_spectrum read while the factors stayed as they
        were: planar's spectrum at beta = 3 went from [0, 4.7e-9, 0.281, 1]
        to [0.0037, 0.0207, 0.381, 0.913]."""
        problem = planar_four_point()
        sol = solve(problem, 3.0, config=TIGHT)
        q = sol.marginal.copy()
        jac = jacobian(problem, q, 3.0)
        before = eigen_spectrum(jac)
        q[:] = 0.25
        assert eigen_spectrum(jac) == before
        np.testing.assert_array_equal(jac.marginal, sol.marginal)
        with pytest.raises(ValueError, match="read-only"):
            jac.marginal[0] = 0.25


class TestJacobianEquality:
    def test_equal_jacobians_compare_equal(self):
        """The generated __eq__ raised ValueError here: it compared field
        tuples holding arrays, whose comparison has no truth value."""
        a = jacobian(binary_hamming(), [0.5, 0.5], 2.0)
        b = jacobian(binary_hamming(), [0.5, 0.5], 2.0)
        assert a is not b and a == b and not a != b

    def test_a_changed_field_compares_unequal(self):
        a = jacobian(binary_hamming(), [0.5, 0.5], 2.0)
        assert a != jacobian(binary_hamming(), [0.5, 0.5], 3.0)
        assert a != replace(a, marginal=np.array([0.25, 0.75]))
        assert a != replace(a, factors=a.factors[:1].copy())
        assert a != jacobian(RdProblem(px=[0.5, 0.5], d=[[0.0, 2.0], [2.0, 0.0]]),
                             [0.5, 0.5], 2.0)
        assert a != a.problem


class TestPredictedIterations:
    def test_exponential_example(self):
        report = eigen_spectrum(
            jacobian(binary_hamming(), np.array([0.5, 0.5]), 1.0)
        )
        report.lambda_max = np.exp(-1.0)
        report.at_criticality = False
        np.testing.assert_allclose(
            predicted_iterations(report, np.exp(-10.0)), 10.0, atol=1e-12
        )

    def test_half_contraction_example(self):
        report = eigen_spectrum(
            jacobian(binary_hamming(), np.array([0.5, 0.5]), 1.0)
        )
        report.lambda_max = 0.5
        report.at_criticality = False
        np.testing.assert_allclose(
            predicted_iterations(report, 1e-9),
            -np.log(1e-9) / np.log(2),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            predicted_iterations(report, 1e-9), 29.897, atol=1e-3
        )

    def test_criticality_returns_infinity(self):
        report = eigen_spectrum(
            jacobian(binary_hamming(), np.array([0.5, 0.5]), 1.0)
        )
        report.at_criticality = True
        assert predicted_iterations(report, 1e-9) == float("inf")

    def test_lambda0_below_rounding_predicts_infinity(self):
        """A positive lambda0 too small to move 1 - lambda0 off 1.0 is a
        contraction factor of 1: both predictions are +inf, without a
        divide-by-zero warning."""
        problem = RdProblem(px=[0.5, 0.5], d=[[0.0, 1.0], [1.0, 0.0]])
        factors = np.array([[0.5, 0.5 + 1e-9], [0.5, 0.5 - 1e-9]])
        jac = FixedPointJacobian(beta=1.0, marginal=np.array([0.5, 0.5]),
                                 problem=problem, residual_linf=0.0, factors=factors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = eigen_spectrum(jac, zero_tol=0.0)
        assert 0.0 < report.lambda0 < 1.2e-16
        assert report.lambda_max == 1.0
        assert not report.at_criticality
        assert report.predicted_rate == float("inf")
        assert predicted_iterations(report, 1e-9) == float("inf")

    def test_epsilon_validation(self):
        report = eigen_spectrum(
            jacobian(binary_hamming(), np.array([0.5, 0.5]), 1.0)
        )
        with pytest.raises(ValueError):
            predicted_iterations(report, 2.0)


class TestKernelDimensionCheck:
    def test_full_support_solution(self):
        problem = planar_four_point()
        sol = solve(problem, 30.0, config=TIGHT)
        assert np.all(sol.marginal > 1e-6)
        assert kernel_dimension_check(problem, sol) == (0, 4, True)

    def test_trivial_phase_solution(self):
        """Below the first transition only one representative survives, and
        the kernel picks up the other three directions."""
        problem = planar_four_point()
        grid = np.geomspace(30.0, 0.5, 80)
        carry = None
        for beta in grid:
            init = None if carry is None else np.where(carry > 1e-10, carry, 0.0)
            if init is not None:
                init = init / init.sum()
            sol = solve(problem, beta, init=init, config=TIGHT)
            carry = sol.marginal
        kernel_dim, support_size, consistent = kernel_dimension_check(problem, sol)
        assert (kernel_dim, support_size, consistent) == (3, 1, True)

    def test_consistency_across_random_interior_instances(self):
        for problem, sol in solved_interior_instances(seed=26, count=10):
            kernel_dim, support_size, consistent = kernel_dimension_check(
                problem, sol
            )
            assert consistent, (kernel_dim, support_size, sol.beta)
