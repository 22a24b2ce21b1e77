"""Unit tests for the sweep engine, transition detection and rate studies."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspectral import (
    IbProblem,
    RdProblem,
    SolverConfig,
    SweepConfig,
    binary_hamming,
    bottleneck_four_symbol,
    detect_transitions,
    ib_solve,
    planar_four_point,
    rate_study,
    solve,
    sweep,
)
from rdspectral.probability import DEFAULT_ZERO_TOL
from rdspectral.sweeps import _snap


class TestSweepConfigValidation:
    def test_rejects_short_grid(self):
        with pytest.raises(ValueError, match="two points"):
            SweepConfig(beta_grid=[1.0])

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepConfig(beta_grid=[1.0, 1.0])
        with pytest.raises(ValueError, match="monotone"):
            SweepConfig(beta_grid=[1.0, 3.0, 2.0])

    def test_reverse_needs_descending(self):
        with pytest.raises(ValueError, match="descending"):
            SweepConfig(beta_grid=[1.0, 2.0], init="reverse")
        SweepConfig(beta_grid=[2.0, 1.0], init="reverse")

    @pytest.mark.parametrize("grid", [[np.inf, 1.0], [1.0, np.nan], [-1.0, 1.0]])
    def test_rejects_non_finite_or_negative_beta(self, grid):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SweepConfig(beta_grid=grid)

    def test_rejects_unknown_policy(self):
        for init in ("warm", "forward"):
            with pytest.raises(ValueError, match="init"):
                SweepConfig(beta_grid=[1.0, 2.0], init=init)

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SweepConfig(beta_grid=[1.0, 2.0], init="dirichlet", seed=seed)

    def test_accepts_numpy_integer_seed(self):
        assert SweepConfig(beta_grid=[1.0, 2.0], seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 1.0])
    def test_rejects_bad_support_tol(self, tol):
        with pytest.raises(ValueError, match="support_tol"):
            SweepConfig(beta_grid=[1.0, 2.0], support_tol=tol)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1e-4])
    def test_rejects_merge_tol_that_is_not_finite_and_positive(self, tol):
        """A NaN merge_tol used to pass and then merge no decoder rows at all."""
        with pytest.raises(ValueError, match="merge_tol must be finite and positive"):
            SweepConfig(beta_grid=[1.0, 2.0], merge_tol=tol)

    def test_support_tol_defaults_to_the_pinning_threshold(self):
        assert SweepConfig(beta_grid=[1.0, 2.0]).support_tol == DEFAULT_ZERO_TOL

    @pytest.mark.parametrize("solver", [None, {"epsilon": 1e-9}, "linf"])
    def test_rejects_solver_that_is_not_a_solver_config(self, solver):
        """sweep used to fail on it later, with AttributeError on
        solver.epsilon."""
        with pytest.raises(ValueError, match="^solver must be a SolverConfig$"):
            SweepConfig(beta_grid=[1.0, 2.0], solver=solver)

    def test_keeps_the_grid_it_checked(self):
        """The config used to keep the caller's float grid itself: an
        ascending grid written into it afterwards turned a reverse anneal
        upward."""
        grid = np.geomspace(4.0, 1.0, 5)
        config = SweepConfig(beta_grid=grid, init="reverse")
        grid[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
        fresh = SweepConfig(beta_grid=np.geomspace(4.0, 1.0, 5), init="reverse")
        assert config == fresh
        assert sweep(binary_hamming(0.8), config) == sweep(binary_hamming(0.8), fresh)
        with pytest.raises(ValueError, match="read-only"):
            config.beta_grid[0] = 1.0

    @pytest.mark.parametrize("name, value", [
        ("beta_grid", [1.0, 2.0]), ("init", "dirichlet"), ("seed", -1),
        ("solver", None), ("merge_tol", np.nan), ("support_tol", 2.0),
    ])
    def test_fields_cannot_be_assigned(self, name, value):
        """An assigned field used to skip every check."""
        config = SweepConfig(beta_grid=[2.0, 1.0], init="reverse")
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
        assert config == SweepConfig(beta_grid=[2.0, 1.0], init="reverse")

    def test_equal_configs_compare_equal(self):
        """The generated __eq__ raised ValueError here: beta_grid is an
        array, and an array comparison has no truth value."""
        a, b = SweepConfig(beta_grid=[2.0, 1.0]), SweepConfig(beta_grid=[2.0, 1.0])
        assert a is not b and a == b and not a != b

    def test_a_changed_field_compares_unequal(self):
        a = SweepConfig(beta_grid=[2.0, 1.0])
        assert a != SweepConfig(beta_grid=[3.0, 1.0])
        assert a != SweepConfig(beta_grid=[2.0, 1.5, 1.0])
        assert a != SweepConfig(beta_grid=[2.0, 1.0], solver=SolverConfig(epsilon=1e-7))
        assert a != SweepConfig(beta_grid=[2.0, 1.0], init="reverse")


# Per-record (iterations, support_size[, effective_cardinality]) of one short
# sweep per problem kind and policy, in ascending beta. Iteration counts are
# the observable the slowing-down analysis rests on, so a change to the sweep
# driver or the iteration maps must reproduce them exactly.
POLICY_RECORDS = {
    "rd-uniform": [(5768, 1), (1510, 2), (518, 2), (663, 2), (98, 3), (24, 4)],
    "rd-dirichlet": [(5990, 1), (1457, 2), (437, 2), (663, 2), (94, 3), (27, 4)],
    "rd-reverse": [(3, 1), (661, 1), (146, 2), (656, 2), (94, 3), (24, 4)],
    "ib-uniform": [
        (14, 4, 1), (30, 4, 1), (40, 4, 2),
        (25, 4, 2), (164, 4, 3), (12, 4, 3),
    ],
    "ib-dirichlet": [
        (13, 4, 1), (29, 4, 1), (37, 4, 2),
        (21, 4, 2), (205, 4, 3), (14, 4, 3),
    ],
    "ib-reverse": [
        (1, 4, 1), (31, 4, 1), (37, 4, 2),
        (60, 4, 2), (81, 4, 4), (6, 4, 4),
    ],
}


@pytest.mark.parametrize("key", sorted(POLICY_RECORDS))
def test_every_policy_keeps_its_iteration_counts(key):
    kind, policy = key.split("-")
    if kind == "rd":
        problem = planar_four_point()
        grid = np.geomspace(0.3, 30.0, 6)
        options = dict(solver=SolverConfig(epsilon=1e-9))
    else:
        problem = bottleneck_four_symbol()
        grid = np.geomspace(1.5, 60.0, 6)
        options = dict(solver=SolverConfig(epsilon=1e-7), merge_tol=1e-4)
    records = sweep(problem, SweepConfig(
        beta_grid=grid[::-1] if policy == "reverse" else grid, init=policy,
        seed=3, support_tol=1e-5, **options,
    ))
    assert all(r.converged for r in records)
    got = [(r.iterations, r.support_size) for r in records]
    if kind == "ib":
        got = [g + (r.effective_cardinality,) for g, r in zip(got, records)]
    else:
        assert all(r.effective_cardinality is None for r in records)
    assert got == POLICY_RECORDS[key]


@pytest.mark.parametrize("policy", ["uniform", "dirichlet"])
@pytest.mark.parametrize("kind", ["rd", "ib"])
def test_cold_sweep_is_standalone_solves(kind, policy):
    """Each point of a cold sweep is the standalone solve from the same start:
    the uniform default, or a Dirichlet draw made in grid order. The grid
    descends, so grid order is not the order of the returned records."""
    if kind == "rd":
        problem, grid = planar_four_point(), np.geomspace(30.0, 0.3, 6)
        solver = SolverConfig(epsilon=1e-9)
    else:
        problem, grid = bottleneck_four_symbol(), np.geomspace(60.0, 1.5, 6)
        solver = SolverConfig(epsilon=1e-7)
    records = sweep(problem, SweepConfig(beta_grid=grid, init=policy, solver=solver, seed=5))
    rng = np.random.default_rng(5)
    for beta, record in zip(grid, records[::-1]):
        start = None
        if policy == "dirichlet":
            start = rng.dirichlet(np.ones(problem.m), size=None if kind == "rd" else problem.n)
        if kind == "rd":
            want = solve(problem, beta, init=start, config=solver)
            got, state = record.marginal, want.marginal
        else:
            want = ib_solve(problem, beta, init_encoder=start, config=solver)
            got, state = record.solution.encoder, want.encoder
        assert record.beta == beta
        assert record.iterations == want.iterations
        assert got.tobytes() == state.tobytes()


class TestRdSweep:
    def test_rejects_a_problem_of_neither_kind(self):
        with pytest.raises(TypeError, match="^cannot sweep a object$"):
            sweep(object(), SweepConfig(beta_grid=[2.0, 1.0]))

    def test_symmetric_hamming_has_no_transitions(self):
        problem = binary_hamming()
        config = SweepConfig(
            beta_grid=np.geomspace(5.0, 0.1, 40),
            init="reverse",
            solver=SolverConfig(epsilon=1e-11),
        )
        records = sweep(problem, config)
        assert [r.beta for r in records] == sorted(r.beta for r in records)
        assert all(r.support_size == 2 for r in records)
        assert detect_transitions(records).intervals == []

    def test_records_carry_rates_and_spectra(self):
        problem = planar_four_point()
        config = SweepConfig(
            beta_grid=np.geomspace(30.0, 20.0, 5),
            init="reverse",
            solver=SolverConfig(epsilon=1e-11),
        )
        records = sweep(problem, config)
        for r in records:
            assert r.converged
            assert r.effective_cardinality is None
            assert 0 < r.lambda0 < 1
            assert 0 <= r.lambda_max < 1
            assert r.measured_rate == r.iterations / (-np.log(1e-11))
            assert r.eigenvalues is not None and len(r.eigenvalues) == 4

    def test_reverse_annealing_pins_dead_coordinates(self):
        problem = planar_four_point()
        config = SweepConfig(
            beta_grid=np.geomspace(30.0, 0.5, 120),
            init="reverse",
            solver=SolverConfig(epsilon=1e-13),
            support_tol=1e-6,
        )
        records = sweep(problem, config)
        # once a coordinate dies along descending beta it never revives
        alive = None
        for r in reversed(records):
            now = r.marginal > 0
            if alive is not None:
                assert not np.any(now & ~alive)
            alive = now
        report = detect_transitions(records)
        assert report.kind == "support"
        sizes = [r.support_size for r in records]
        assert sorted(set(sizes)) == [1, 2, 3, 4]

    def test_records_hold_no_n_by_m_array(self):
        """A reverse sweep's records keep O(m) floats each: no array of n * m
        or more elements in a record's fields or its solution's, whose
        problem is the sweep's own, shared by every record."""
        rng = np.random.default_rng(5)
        n = m = 64
        problem = RdProblem(px=rng.dirichlet(np.ones(n)), d=rng.uniform(0, 1, (n, m)))
        config = SweepConfig(beta_grid=np.geomspace(40.0, 5.0, 4), init="reverse",
                             solver=SolverConfig(epsilon=1e-6))
        for record in sweep(problem, config):
            assert record.solution.problem is problem
            held = list(vars(record).values()) + list(vars(record.solution).values())
            sizes = [v.size for v in held if isinstance(v, np.ndarray)]
            assert sizes and max(sizes) < n * m
            assert record.solution.encoder.shape == (n, m)

    def test_dirichlet_policy_is_seeded(self):
        problem = binary_hamming(0.7)
        grid = np.linspace(1.0, 3.0, 5)
        a = sweep(problem, SweepConfig(beta_grid=grid, init="dirichlet", seed=4))
        b = sweep(problem, SweepConfig(beta_grid=grid, init="dirichlet", seed=4))
        for ra, rb in zip(a, b):
            assert ra.iterations == rb.iterations
            np.testing.assert_array_equal(ra.marginal, rb.marginal)


class TestIbSweep:
    def test_effective_cardinality_steps_up(self):
        problem = bottleneck_four_symbol()
        config = SweepConfig(
            beta_grid=np.geomspace(60.0, 1.5, 120),
            init="reverse",
            solver=SolverConfig(epsilon=1e-7),
            merge_tol=1e-4,
            support_tol=1e-5,
        )
        records = sweep(problem, config)
        cards = [r.effective_cardinality for r in records]
        assert all(c2 >= c1 for c1, c2 in zip(cards, cards[1:]))
        assert cards[0] == 1 and cards[-1] == 4
        report = detect_transitions(records)
        assert report.kind == "effective_cardinality"
        assert len(report.intervals) == 3
        for r in records:
            assert np.isnan(r.lambda0)
            assert r.distortion_or_info >= -1e-12

    def test_reverse_sweep_keeps_a_low_mass_symbols_own_representative(self):
        """Symbol 2 has mass 1e-12 and its encoder row rests on its own
        representative, whose marginal is then below DEFAULT_ZERO_TOL:
        snapping would empty the row, which made the warm start raise."""
        pyx = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        px = np.array([0.5, 0.5 - 1e-12, 1e-12])
        config = SweepConfig(beta_grid=np.geomspace(5000.0, 1.0, 20), init="reverse",
                             solver=SolverConfig(epsilon=1e-7))
        records = sweep(IbProblem(pxy=px[:, None] * pyx), config)
        assert all(r.converged for r in records)
        assert len(detect_transitions(records).intervals) == 1

    def test_records_compare_by_value(self):
        """Two sweeps give equal records although their spectral fields are
        NaN; one changed grid point makes them unequal."""
        problem = bottleneck_four_symbol()
        config = SweepConfig(beta_grid=[8.0, 4.0, 2.0], init="reverse")
        records = sweep(problem, config)
        again = sweep(problem, config)
        assert np.isnan(records[0].lambda0) and records == again
        assert detect_transitions(records) == detect_transitions(again)
        assert records != sweep(problem, SweepConfig(beta_grid=[8.0, 4.0, 2.5],
                                                     init="reverse"))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), encoder=st.booleans(), fortran=st.booleans())
def test_snap_keeps_every_row_that_keeps_mass(seed, encoder, fortran):
    """Every row that keeps some mass gets the bytes of zeroing the
    representatives at or below DEFAULT_ZERO_TOL and renormalizing; a row
    that would be emptied keeps its entries, renormalized. Masses span
    sixteen decades and some are exact zeros, as a flushed solve leaves
    them, so low-mass symbols can rest wholly on faint representatives."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    shape = (n, m) if encoder else (m,)
    state = rng.random(shape) * 10.0 ** rng.integers(-16, 1, size=shape)
    state[rng.random(shape) < 0.3] = 0.0
    state[state.sum(axis=-1) == 0] = 1.0
    if fortran:
        state = np.asfortranarray(state)
    if encoder:
        px = rng.random(n) * 10.0 ** rng.integers(-16, 1, size=n)
        marginal = px / px.sum() @ state
    else:
        marginal = state = state / state.sum()
    snapped = _snap(state, marginal)
    rows = np.atleast_2d(snapped)
    kept = np.where(marginal > DEFAULT_ZERO_TOL, state, 0.0)
    with np.errstate(invalid="ignore"):
        want = np.atleast_2d(kept / kept.sum(axis=-1, keepdims=True))
    for row, want_row, before in zip(rows, want, np.atleast_2d(state)):
        if np.isfinite(want_row).all():
            assert row.tobytes() == want_row.tobytes()
        else:
            assert row.tobytes() == (before / before.sum()).tobytes()


class TestDetectTransitions:
    def _record(self, beta, support_size, converged=True, card=None):
        from rdspectral.sweeps import SweepRecord

        return SweepRecord(
            beta=beta,
            iterations=5,
            converged=converged,
            support_size=support_size,
            effective_cardinality=card,
            lambda0=0.5,
            lambda_max=0.5,
            predicted_rate=1.0,
            measured_rate=1.0,
            marginal=np.array([1.0]),
            rate=0.0,
            distortion_or_info=0.0,
        )

    def test_empty_on_constant_support(self):
        records = [self._record(b, 3) for b in (1.0, 2.0, 3.0)]
        assert detect_transitions(records).intervals == []

    def test_bracket_spans_one_step(self):
        records = [
            self._record(1.0, 1),
            self._record(2.0, 1),
            self._record(3.0, 2),
            self._record(4.0, 2),
        ]
        report = detect_transitions(records)
        assert report.intervals == [(2.0, 3.0)]
        assert report.index_pairs == [(1, 2)]

    def test_unconverged_records_excluded_with_warning(self):
        records = [
            self._record(1.0, 1),
            self._record(2.0, 5, converged=False),
            self._record(3.0, 2),
        ]
        with pytest.warns(UserWarning, match="unconverged"):
            report = detect_transitions(records)
        assert report.intervals == [(1.0, 3.0)]

    def test_requires_ascending_order(self):
        records = [self._record(2.0, 1), self._record(1.0, 1)]
        with pytest.raises(ValueError, match="ascending"):
            detect_transitions(records)

    def test_no_records_give_an_empty_report(self):
        report = detect_transitions([])
        assert (report.intervals, report.index_pairs, report.kind) == ([], [], "support")


class TestRateStudy:
    @pytest.mark.parametrize("epsilons", [[], [1.5]])
    def test_rejects_epsilons(self, epsilons):
        with pytest.raises(
            ValueError, match=r"^epsilons must be a non-empty list of values in \(0, 1\)$"
        ):
            rate_study(binary_hamming(0.8), 2.5, epsilons)

    def test_measured_tracks_predicted(self):
        problem = binary_hamming(0.8)
        points = rate_study(
            problem, 2.5, [1e-6, 1e-12], anchor_beta=8.0
        )
        assert [p.epsilon for p in points] == [1e-6, 1e-12]
        last = points[-1]
        assert abs(last.measured_rate - last.predicted_rate) / last.predicted_rate < 0.10

    def test_accuracy_improves_with_smaller_epsilon(self):
        problem = binary_hamming(0.8)
        points = rate_study(problem, 2.2, [1e-5, 1e-12], anchor_beta=8.0)
        rel = [
            abs(p.measured_rate - p.predicted_rate) / p.predicted_rate
            for p in points
        ]
        assert rel[1] <= rel[0] + 0.05

    def test_rejects_beta_zero(self):
        with pytest.raises(ValueError, match="beta > 0"):
            rate_study(binary_hamming(), 0.0, [1e-9])

    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_rejects_a_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="^rate study needs a finite beta > 0"):
            rate_study(binary_hamming(), beta, [1e-9])

    def test_rejects_unconverged_reference(self):
        message = r"beta=2\.0 did not converge .* within 50 iterations"
        with pytest.raises(ValueError, match=message):
            rate_study(binary_hamming(0.8), 2.0, [1e-6], max_iterations=50)

    def test_rejects_bad_anchor(self):
        with pytest.raises(ValueError, match="anchor"):
            rate_study(binary_hamming(), 2.0, [1e-9], anchor_beta=1.0)

    @pytest.mark.parametrize("anchor_beta", [float("inf"), float("nan")])
    def test_rejects_a_non_finite_anchor(self, anchor_beta):
        with pytest.raises(ValueError, match="^anchor_beta must be finite and exceed beta"):
            rate_study(binary_hamming(), 2.0, [1e-9], anchor_beta=anchor_beta)

    def test_lambda_fields_are_consistent(self):
        problem = binary_hamming(0.8)
        points = rate_study(problem, 3.0, [1e-9], anchor_beta=9.0)
        p = points[0]
        np.testing.assert_allclose(p.lambda_max, 1 - p.lambda0, atol=1e-12)
        np.testing.assert_allclose(
            p.predicted_rate, 1.0 / (-np.log(p.lambda_max)), atol=1e-12
        )

    def test_half_contraction_regime(self):
        """On a problem tuned so the contraction factor is 1/2, the measured
        rate at eps = 1e-12 lands within 10% of 1/log 2."""
        from rdspectral import SolverConfig as SC
        from rdspectral import eigen_spectrum, jacobian, solve

        problem = binary_hamming(0.8)
        lo, hi = 2.2, 2.6
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            sol = solve(problem, mid, config=SC(epsilon=1e-13))
            lam = eigen_spectrum(jacobian(problem, sol.marginal, mid)).lambda_max
            if lam > 0.5:
                lo = mid
            else:
                hi = mid
        beta_star = 0.5 * (lo + hi)
        points = rate_study(problem, beta_star, [1e-12], anchor_beta=8.0)
        target = 1.0 / np.log(2)
        measured = points[0].measured_rate
        assert abs(measured - target) / target < 0.10
        np.testing.assert_allclose(points[0].predicted_rate, target, rtol=1e-6)

    def test_random_interior_starts_mostly_match_prediction(self):
        """The rate prediction is an almost-every-initialization statement;
        no sharp finite-sample bound is available, so this records the
        empirical fraction of random interior starts within 15% at 1e-12
        and only requires a majority."""
        from rdspectral import SolverConfig as SC
        from rdspectral import eigen_spectrum, jacobian, solve

        problem = binary_hamming(0.8)
        beta = 2.5
        reference = solve(problem, beta, config=SC(epsilon=1e-13, norm="l1"))
        report = eigen_spectrum(jacobian(problem, reference.marginal, beta))
        predicted = 1.0 / (-np.log(report.lambda_max))
        rng = np.random.default_rng(41)
        hits = 0
        runs = 12
        for _ in range(runs):
            init = reference.marginal + rng.uniform(-0.05, 0.05)
            init = np.abs(init) / np.abs(init).sum()
            run = solve(problem, beta, init=init, config=SC(epsilon=1e-12,
                                                            norm="l1"))
            measured = run.iterations / (-np.log(1e-12))
            if abs(measured - predicted) / predicted < 0.15:
                hits += 1
        print(f"rate-law hit fraction from random starts: {hits}/{runs}")
        assert hits >= runs // 2
