"""Unit tests for the bottleneck problem type, iteration and tangent construction."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_of, ib_functional, stepped_ib_solve
from rdspectral import (
    IbProblem,
    NumericalError,
    SolverConfig,
    bottleneck_four_symbol,
    decoder_classes,
    dump_problem,
    effective_cardinality,
    ib_decoder,
    ib_distortion,
    ib_solve,
    ib_step,
    identity_encoder_init,
    kl_divergence,
    load_problem,
    mutual_information,
    relevant_information,
    solve,
    tangent_rd,
    uniform_encoder_init,
)
from rdspectral import ib as ibmod
from rdspectral.sweeps import _snap_encoder

EPS7 = SolverConfig(epsilon=1e-7)


class TestIbProblemValidation:
    def test_rejects_zero_source_mass(self):
        with pytest.raises(ValueError, match="positive"):
            IbProblem(pxy=np.array([[0.0, 0.0], [0.5, 0.5]]))

    def test_rejects_independent_pair(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.4, 0.6])
        with pytest.raises(ValueError, match="no information"):
            IbProblem(pxy=np.outer(px, py))

    def test_renormalizes_joint(self):
        problem = IbProblem(pxy=np.array([[0.4, 0.1], [0.1, 0.4]]) * 3)
        np.testing.assert_allclose(problem.pxy.sum(), 1.0, atol=1e-15)

    def test_json_forms(self):
        as_joint = IbProblem.from_json_dict({"pxy": [[0.35, 0.35], [0.2, 0.1]]})
        as_cond = IbProblem.from_json_dict({
            "px": [0.7, 0.3],
            "py_given_x": [[0.5, 0.5], [0.6666666666666666, 0.3333333333333333]],
        })
        np.testing.assert_allclose(as_joint.pxy, as_cond.pxy, atol=1e-12)

    def test_problem_file_keeps_m(self, tmp_path):
        problem = IbProblem(pxy=[[0.3, 0.1], [0.1, 0.2], [0.2, 0.1]], m=2)
        dump_problem(problem, tmp_path / "p.json")
        again = load_problem(tmp_path / "p.json")
        assert isinstance(again, IbProblem)
        assert (again.n, again.m) == (3, 2)
        np.testing.assert_array_equal(again.pxy, problem.pxy)

    def test_builtin_numbers(self):
        problem = bottleneck_four_symbol()
        np.testing.assert_allclose(problem.px, [0.7, 0.1, 0.1, 0.1], atol=1e-15)
        np.testing.assert_allclose(
            problem.py_given_x[:, 0], [0.2, 0.4, 0.6, 0.8], atol=1e-15
        )


class TestDecoder:
    def test_identity_encoder_reproduces_conditionals(self):
        problem = bottleneck_four_symbol()
        dec = ib_decoder(problem, np.eye(4))
        np.testing.assert_allclose(dec, problem.py_given_x, atol=1e-14)

    def test_constant_encoder_gives_output_marginal(self):
        problem = bottleneck_four_symbol()
        enc = np.full((4, 4), 0.25)
        dec = ib_decoder(problem, enc)
        for row in dec:
            np.testing.assert_allclose(row, problem.py, atol=1e-14)

    def test_two_cluster_encoder_oracle(self):
        """Hard two-cluster encoder: decoder rows are the cluster-weighted
        averages of p(y|x)."""
        problem = bottleneck_four_symbol()
        enc = np.array(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=float
        )
        enc = np.hstack([enc, np.zeros((4, 2))])
        dec = ib_decoder(problem, enc)
        px = problem.px
        w0 = px[:2] / px[:2].sum()
        w1 = px[2:] / px[2:].sum()
        np.testing.assert_allclose(
            dec[0], w0 @ problem.py_given_x[:2], atol=1e-14
        )
        np.testing.assert_allclose(
            dec[1], w1 @ problem.py_given_x[2:], atol=1e-14
        )
        # mass-free representatives fall back to the global output marginal
        np.testing.assert_allclose(dec[2], problem.py, atol=1e-14)
        np.testing.assert_allclose(dec[3], problem.py, atol=1e-14)


class TestIbDistortion:
    def test_matching_row_is_zero(self):
        problem = bottleneck_four_symbol()
        dec = np.tile(problem.py_given_x[1], (4, 1))
        dist = ib_distortion(problem, dec)
        np.testing.assert_allclose(dist[1], 0.0, atol=1e-14)

    def test_binary_value(self):
        problem = bottleneck_four_symbol()
        dec = np.tile([0.5, 0.5], (4, 1))
        dist = ib_distortion(problem, dec)
        expected = 0.2 * np.log(0.4) + 0.8 * np.log(1.6)
        np.testing.assert_allclose(dist[0, 0], expected, atol=1e-12)
        np.testing.assert_allclose(dist[0, 0], 0.1927, atol=1e-4)

    def test_support_mismatch_is_infinite(self):
        problem = bottleneck_four_symbol()
        dec = np.tile([1.0, 0.0], (4, 1))
        dist = ib_distortion(problem, dec)
        assert np.all(np.isinf(dist))

    def test_rows_against_kl_helper(self):
        problem = bottleneck_four_symbol()
        rng = np.random.default_rng(0)
        dec = rng.dirichlet(np.ones(2), size=4)
        dist = ib_distortion(problem, dec)
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(
                    dist[i, j],
                    kl_divergence(problem.py_given_x[i], dec[j]),
                    atol=1e-12,
                )


class TestIbStep:
    def test_beta_zero_collapses_rows(self):
        problem = bottleneck_four_symbol()
        rng = np.random.default_rng(1)
        enc = rng.dirichlet(np.ones(4), size=4)
        new_enc, marginal, _ = ib_step(problem, enc, 0.0)
        for row in new_enc:
            np.testing.assert_allclose(row, problem.px @ enc, atol=1e-12)
        np.testing.assert_allclose(marginal, problem.px @ new_enc, atol=1e-14)

    def test_fixed_point_is_stationary(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 30.0, init_encoder=identity_encoder_init(problem),
                       config=SolverConfig(epsilon=1e-13))
        new_enc, _, _ = ib_step(problem, sol.encoder, 30.0)
        assert np.max(np.abs(new_enc - sol.encoder)) < 1e-12

    def test_zero_marginal_columns_stay_zero(self):
        problem = bottleneck_four_symbol()
        enc = np.array(
            [[0.6, 0.4, 0.0, 0.0]] * 4, dtype=float
        )
        enc = enc + np.array([[0.1, -0.1, 0, 0]] * 4) * np.linspace(0, 1, 4)[:, None]
        enc /= enc.sum(axis=1, keepdims=True)
        new_enc, marginal, _ = ib_step(problem, enc, 5.0)
        assert np.all(new_enc[:, 2:] == 0.0)
        assert np.all(marginal[2:] == 0.0)


class TestIbSolve:
    @pytest.mark.parametrize("beta", [np.inf, np.nan, -1.0])
    def test_rejects_non_finite_or_negative_beta(self, beta):
        problem = bottleneck_four_symbol()
        with pytest.raises(ValueError, match="finite and non-negative"):
            ib_solve(problem, beta)
        with pytest.raises(ValueError, match="finite and non-negative"):
            ib_step(problem, uniform_encoder_init(problem), beta)

    def test_beta_zero_trivial(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 0.0, config=EPS7)
        assert sol.converged and sol.iterations <= 3
        assert sol.rate < 1e-10
        for i in range(4):
            if sol.marginal[i] > 0:
                np.testing.assert_allclose(sol.decoder[i], problem.py, atol=1e-9)

    def test_below_first_transition_is_trivial(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 3.0, config=EPS7)
        assert sol.converged
        assert effective_cardinality(sol, merge_tol=1e-4, zero_tol=1e-5) == 1
        for i in range(4):
            if sol.marginal[i] > 1e-5:
                np.testing.assert_allclose(sol.decoder[i], problem.py, atol=1e-5)

    def test_large_beta_saturates_relevance(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 100.0, init_encoder=identity_encoder_init(problem),
                       config=EPS7)
        ceiling = problem.relevant_information_ceiling()
        assert sol.relevant_info <= ceiling + 1e-10
        assert ceiling - sol.relevant_info < 1e-3
        assert effective_cardinality(sol, merge_tol=1e-4, zero_tol=1e-5) == 4

    def test_decoder_consistency_invariant(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 12.0, config=EPS7)
        recomputed = ib_decoder(problem, sol.encoder, sol.marginal)
        assert np.max(np.abs(recomputed - sol.decoder)) < 1e-9

    def test_marginal_consistency_invariant(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 12.0, config=EPS7)
        np.testing.assert_allclose(
            sol.marginal, problem.px @ sol.encoder, atol=1e-10
        )

    def test_information_bounds(self):
        problem = bottleneck_four_symbol()
        ceiling = problem.relevant_information_ceiling()
        for beta in (2.0, 8.0, 25.0, 60.0):
            sol = ib_solve(problem, beta, config=EPS7)
            assert -1e-10 <= sol.relevant_info <= sol.rate + 1e-10
            assert sol.relevant_info <= ceiling + 1e-10

    def test_functional_monotone_along_iterates(self):
        problem = bottleneck_four_symbol()
        for beta in (5.0, 20.0, 40.0):
            sol = ib_solve(problem, beta, config=EPS7)
            enc = uniform_encoder_init(problem)
            values = [ib_functional(problem, enc, beta)]
            for _ in range(sol.iterations):
                enc, _, _ = ib_step(problem, enc, beta)
                values.append(ib_functional(problem, enc, beta))
            assert np.all(np.diff(values) <= 1e-10)

    def test_budget_exhaustion_flags(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 20.0, config=SolverConfig(max_iterations=2))
        assert not sol.converged and sol.iterations == 2

    def test_exact_uniform_encoder_is_a_fixed_point(self):
        """The tie that the uniform-init blend exists to break."""
        problem = bottleneck_four_symbol()
        enc = np.full((4, 4), 0.25)
        new_enc, _, _ = ib_step(problem, enc, 50.0)
        np.testing.assert_allclose(new_enc, enc, atol=1e-13)

    def test_uniform_blend_escapes_the_tie(self):
        problem = bottleneck_four_symbol()
        sol = ib_solve(problem, 8.0, init_encoder=uniform_encoder_init(problem),
                       config=EPS7)
        assert sol.converged
        assert sol.relevant_info > 0.01


class TestInitEncoderRejection:
    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.nan, "finite"),
            (np.inf, "finite"),
            (-np.inf, "finite"),
        ],
    )
    def test_non_finite_entry(self, bad, match):
        problem = bottleneck_four_symbol()
        enc = identity_encoder_init(problem)
        enc[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                ib_solve(problem, 10.0, init_encoder=enc)

    def test_all_zero_row(self):
        problem = bottleneck_four_symbol()
        enc = identity_encoder_init(problem)
        enc[3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="all-zero row"):
                ib_solve(problem, 10.0, init_encoder=enc)

    def test_zero_column_is_accepted(self):
        problem = bottleneck_four_symbol()
        enc = identity_encoder_init(problem)
        enc[:, 3] = 0.0
        sol = ib_solve(problem, 10.0, init_encoder=enc, config=EPS7)
        assert sol.converged and np.all(sol.encoder[:, 3] == 0.0)


class TestCachedConstants:
    def test_read_only_and_equal_to_fresh(self):
        problem = bottleneck_four_symbol()
        pxy = problem.pxy
        px = pxy.sum(axis=1)
        pygx = pxy / px[:, None]
        with np.errstate(divide="ignore"):
            logp = np.log(pygx[:, None, :])
        fresh = {
            "px": px,
            "py": pxy.sum(axis=0),
            "py_given_x": pygx,
        }
        for name, expected in fresh.items():
            cached = getattr(problem, name)
            assert cached is getattr(problem, name)
            assert not cached.flags.writeable
            assert np.array_equal(cached, expected)
        cached_pygx, cached_logp, cached_pos = problem._kl_terms
        assert np.array_equal(cached_pygx, pygx[:, None, :])
        assert np.array_equal(cached_logp, logp)
        assert np.array_equal(cached_pos, pygx[:, None, :] > 0)
        for arr in (pxy, *problem._kl_terms):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            problem.px[0] = 0.5

    def test_log_of_zero_conditional_is_cached_quietly(self):
        pxy = np.array([[0.35, 0.0, 0.0], [0.0, 0.35, 0.0], [0.0, 0.0, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = IbProblem(pxy=pxy)
            _, logp, pos = problem._kl_terms
        assert np.all(np.isneginf(logp[~pos]))

    def test_caller_array_is_not_aliased(self):
        pxy = np.array([[0.35, 0.15], [0.1, 0.4]])
        problem = IbProblem(pxy=pxy)
        px = problem.px.copy()
        pxy[0, 0] = 0.0
        assert problem.pxy[0, 0] == 0.35
        assert np.array_equal(problem.px, px)


def _bytes_digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestLeanLoop:
    """The solve loop is the bottleneck map iterated, bit for bit."""

    @staticmethod
    def _snapped_start(problem):
        hi = ib_solve(problem, 25.0, init_encoder=identity_encoder_init(problem),
                      config=EPS7)
        start = _snap_encoder(hi.encoder, hi.marginal, 1e-5)
        assert np.any(np.all(start == 0.0, axis=0))
        return start

    @pytest.mark.parametrize(
        "beta, start",
        [(30.0, "identity"), (8.0, "uniform"), (22.0, "snapped")],
    )
    def test_trace_is_repeated_ib_step(self, beta, start):
        problem = bottleneck_four_symbol()
        init = {
            "identity": identity_encoder_init,
            "uniform": uniform_encoder_init,
            "snapped": self._snapped_start,
        }[start](problem)
        sol = ib_solve(problem, beta, init_encoder=init, config=EPS7)
        # ib_solve starts from the init with its rows renormalized.
        enc = init / init.sum(axis=1, keepdims=True)
        for k in range(1, sol.iterations + 1):
            enc, marginal, _ = ib_step(problem, enc, beta)
            budgeted = ib_solve(problem, beta, init_encoder=init,
                                config=replace(EPS7, max_iterations=k))
            assert budgeted.encoder.tobytes() == enc.tobytes(), f"iterate {k}"
        assert sol.encoder.tobytes() == enc.tobytes()
        assert sol.marginal.tobytes() == marginal.tobytes()
        assert sol.decoder.tobytes() == ib_decoder(problem, enc, marginal).tobytes()
        if start == "snapped":
            assert np.all(sol.encoder[:, np.all(init == 0.0, axis=0)] == 0.0)

    @pytest.mark.parametrize(
        "beta, start, iterations, digest",
        [
            (8.0, "uniform", 37,
             "67c062bf97de7319989bbfabfb8c826e3389c3f8027d505e26ddcff6aa018764"),
            (25.0, "identity", 3665,
             "23f29935bdb14eec6894b855fc1f32ab2ce538ba027dfbc614cd868d8dd10925"),
            (30.0, "identity", 81,
             "648f662b5bfb9569564d325f5869b6d1d91982245042336c6e4779967de4c187"),
        ],
    )
    def test_pinned_counts_and_encoder_bytes(self, beta, start, iterations, digest):
        """Iteration counts and final encoder bytes at the default epsilon,
        recorded before the loop was rewritten."""
        problem = bottleneck_four_symbol()
        init = identity_encoder_init(problem) if start == "identity" else None
        sol = ib_solve(problem, beta, init_encoder=init)
        assert sol.converged
        assert sol.iterations == iterations
        assert _bytes_digest(sol.encoder) == digest


    @staticmethod
    def _column_permuted():
        """fig2 with its two relevance columns swapped. Fancy indexing hands
        IbProblem a Fortran-ordered pxy, which its derived arrays and every
        encoder the map produces inherit."""
        problem = IbProblem(pxy=bottleneck_four_symbol().pxy[:, [1, 0]])
        assert problem.pxy.flags.f_contiguous and not problem.pxy.flags.c_contiguous
        return problem

    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_is_repeated_ib_step_in_either_layout(self, order, permuted):
        """px @ encoder rounds differently on a C- and an F-ordered encoder,
        so the loop's buffers must take the layout the map gives its output,
        whatever the layout of the init and of pxy. ib_solve starts from a
        C-ordered copy of the init, so the trace starts there too."""
        problem = self._column_permuted() if permuted else bottleneck_four_symbol()
        init = np.asarray(identity_encoder_init(problem), order=order)
        sol = ib_solve(problem, 25.0, init_encoder=init, config=EPS7)
        start = init.copy()
        enc = start / start.sum(axis=1, keepdims=True)
        for _ in range(sol.iterations):
            enc, marginal, _ = ib_step(problem, enc, 25.0)
        assert sol.encoder.tobytes(order="A") == enc.tobytes(order="A")
        assert sol.encoder.strides == enc.strides
        assert sol.marginal.tobytes() == marginal.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "config, iterations, encoder_digest, marginal_digest",
        [
            pytest.param(
                SolverConfig(), 3665,
                "c139936fbd827fe2cd952e59eb5217770a59d47449b96240423535c01e15766f",
                "f9c12b41b65241018b4d934473dc1b10c2296ff0c9ea62609070d7599678eeb2",
                id="linf"),
            pytest.param(
                SolverConfig(norm="l1", epsilon=1e-11), 5624,
                "6e3638125b16ce892e765bb9d40bb85d1a253e00e07ece352210942a0eb3266e",
                "29b9f37955c750dc3f56ad5281a0d546cd7f48a6323115130d4da0a138f885ea",
                id="l1"),
        ],
    )
    def test_pinned_counts_and_bytes_on_a_fortran_ordered_problem(
        self, order, config, iterations, encoder_digest, marginal_digest
    ):
        """Recorded before the loop was rewritten. The l1 distance sums the
        encoder difference in C order whatever the encoders' layout."""
        problem = self._column_permuted()
        init = np.asarray(identity_encoder_init(problem), order=order)
        sol = ib_solve(problem, 25.0, init_encoder=init, config=config)
        assert sol.converged and sol.iterations == iterations
        assert _bytes_digest(sol.encoder) == encoder_digest
        assert _bytes_digest(sol.marginal) == marginal_digest

    def test_row_that_loses_all_mass_keeps_its_message(self):
        """With one representative, beta * KL(p(y|x=1) || p(y)) = 1e308 * log 10
        overflows, so row 1 of the encoder update is exp(-inf - -inf) = NaN."""
        problem = IbProblem(pxy=[[0.9, 0.0], [0.0, 0.1]], m=1)
        message = "^encoder update lost all mass on some row$"
        with pytest.raises(NumericalError, match=message):
            ib_solve(problem, 1e308)
        with pytest.raises(NumericalError, match=message):
            ib_step(problem, np.ones((2, 1)), 1e308)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([1, 63, 64, 65, 129, 1100]),
       norm=st.sampled_from(["l1", "linf"]))
def test_solve_is_repeated_steps_across_block_edges(seed, budget, norm):
    """ib_solve tests its stopping rule once per block, and stops where a
    test after every step does: its encoder, marginal, count and flag are
    those of repeated ib_step calls, bit for bit, at budgets that end blocks
    of one to 64 steps early or late, and from starts with exact zeros."""
    rng = np.random.default_rng(seed)
    n, ny, m = (int(v) for v in rng.integers(2, 6, 3))
    problem = IbProblem(pxy=rng.dirichlet(np.ones(n * ny)).reshape(n, ny), m=m)
    init = rng.dirichlet(np.ones(m), size=n)
    init[rng.random((n, m)) < 0.3] = 0.0
    init[np.arange(n), rng.integers(m, size=n)] += 0.5
    beta = float(rng.uniform(0.0, 30.0))
    config = SolverConfig(epsilon=10.0 ** -rng.uniform(2.0, 10.0), norm=norm,
                          max_iterations=budget)
    sol = ib_solve(problem, beta, init_encoder=init, config=config)
    encoder, marginal, iterations, converged = stepped_ib_solve(problem, init, beta, config)
    assert sol.encoder.tobytes(order="A") == encoder.tobytes(order="A")
    assert sol.marginal.tobytes() == marginal.tobytes()
    assert sol.iterations == iterations
    assert sol.converged == converged


def poison_ib_step(monkeypatch, call: int) -> None:
    """Make the call-th bottleneck step (counted from 1) write NaN into the
    encoder it returns."""
    update, calls = ibmod._ib_update, [0]

    def poisoned(*args):
        step = update(*args)
        calls[0] += 1
        if calls[0] == call:
            step[0].fill(np.nan)
        return step

    monkeypatch.setattr(ibmod, "_ib_update", poisoned)


class TestBlockEdges:
    """ib_solve runs a block of steps past its stopping row, and only rows
    up to it count; an error names the iteration it happened in."""

    def _solve(self):
        problem = bottleneck_four_symbol()
        return ib_solve(problem, 30.0, init_encoder=identity_encoder_init(problem))

    def test_nan_after_the_stopping_row_is_ignored(self, monkeypatch):
        clean = self._solve()
        assert clean.converged and block_of(clean.iterations)[1] > clean.iterations
        poison_ib_step(monkeypatch, clean.iterations + 1)
        poisoned = self._solve()
        assert poisoned.iterations == clean.iterations
        assert poisoned.encoder.tobytes() == clean.encoder.tobytes()
        assert poisoned.marginal.tobytes() == clean.marginal.tobytes()

    def test_nan_raises_at_its_own_iteration(self, monkeypatch):
        """Iteration 67 opens a block that runs on to step 70; the solve
        takes 81."""
        assert block_of(67) == (67, 70)
        poison_ib_step(monkeypatch, 67)
        with pytest.raises(NumericalError, match="^non-finite encoder at iteration 67$"):
            self._solve()


    def test_first_step_reruns_from_the_callers_encoder(self, monkeypatch):
        """A column-permuted pxy gives the history rows another layout than
        the caller's C-ordered encoder; the re-run of a failing first step
        reads the encoder that step read."""
        rng = np.random.default_rng(5)
        problem = IbProblem(pxy=rng.dirichlet(np.ones(12)).reshape(3, 4)[:, [2, 0, 3, 1]])
        assert problem.pxy.flags.f_contiguous and not problem.pxy.flags.c_contiguous
        seen, update = [], ibmod._ib_update

        def recording(problem, encoder, *args):
            seen.append(encoder)
            return update(problem, encoder, *args)

        monkeypatch.setattr(ibmod, "_ib_update", recording)
        poison_ib_step(monkeypatch, 1)
        with pytest.raises(NumericalError, match="^non-finite encoder at iteration 1$"):
            ib_solve(problem, 5.0)
        assert len(seen) == 2 and seen[1] is seen[0] and seen[0].flags.c_contiguous


class TestEffectiveCardinality:
    def _solution_with(self, marginal, decoder):
        problem = bottleneck_four_symbol()
        return_type = ib_solve(problem, 1.0, config=SolverConfig(max_iterations=1))
        return_type.marginal = np.asarray(marginal, dtype=float)
        return_type.decoder = np.asarray(decoder, dtype=float)
        return return_type

    def test_identical_rows_full_support(self):
        sol = self._solution_with(
            [0.25, 0.25, 0.25, 0.25], np.tile([0.4, 0.6], (4, 1))
        )
        assert effective_cardinality(sol) == 1

    def test_zero_mass_row_excluded(self):
        sol = self._solution_with(
            [0.5, 0.5, 0.0, 0.0],
            [[0.4, 0.6], [0.8, 0.2], [0.1, 0.9], [0.5, 0.5]],
        )
        assert effective_cardinality(sol) == 2

    def test_merge_tolerance_clusters(self):
        sol = self._solution_with(
            [0.4, 0.3, 0.3, 0.0],
            [[0.4, 0.6], [0.4 + 1e-8, 0.6 - 1e-8], [0.8, 0.2], [0.5, 0.5]],
        )
        assert effective_cardinality(sol, merge_tol=1e-6) == 2
        assert effective_cardinality(sol, merge_tol=1e-10) == 3

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-4])
    def test_rejects_merge_tol_that_merges_nothing(self, tol):
        sol = self._solution_with([0.5, 0.5, 0.0, 0.0], np.tile([0.4, 0.6], (4, 1)))
        with pytest.raises(ValueError, match="merge_tol"):
            decoder_classes(sol, merge_tol=tol)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 1.0, 2.0])
    def test_rejects_zero_tol_outside_unit_interval(self, tol):
        """A NaN zero_tol would count every representative and one of 1 or
        more none."""
        sol = self._solution_with([0.5, 0.5, 0.0, 0.0], np.tile([0.4, 0.6], (4, 1)))
        with pytest.raises(ValueError, match="zero_tol"):
            decoder_classes(sol, zero_tol=tol)

    def test_three_classes_between_upper_transitions(self):
        """Between the second and third transitions (near 19 and 25 under
        reverse annealing) the builtin problem holds three decoder classes."""
        problem = bottleneck_four_symbol()
        start = ib_solve(problem, 23.0, init_encoder=identity_encoder_init(problem),
                         config=EPS7)
        sol = ib_solve(problem, 22.0, init_encoder=start.encoder, config=EPS7)
        assert effective_cardinality(sol, merge_tol=1e-4, zero_tol=1e-5) == 3


@pytest.fixture(scope="module")
def quiet_flanks():
    """Two nearby converged solutions with no transition between them."""
    problem = bottleneck_four_symbol()
    hi = ib_solve(problem, 30.0, init_encoder=identity_encoder_init(problem),
                  config=EPS7)
    lo = ib_solve(problem, 29.7, init_encoder=hi.encoder, config=EPS7)
    return problem, lo, hi


@pytest.fixture(scope="module")
def transition_flanks():
    """Converged solutions straddling the highest cardinality transition."""
    problem = bottleneck_four_symbol()
    start = ib_solve(problem, 26.0, init_encoder=identity_encoder_init(problem),
                     config=EPS7)
    hi = ib_solve(problem, 25.21, init_encoder=start.encoder, config=EPS7)
    lo = ib_solve(problem, 24.9, init_encoder=hi.encoder, config=EPS7)
    return problem, lo, hi


class TestTangentRd:
    def test_degenerate_union_dedups_to_single_copy(self, quiet_flanks):
        problem, lo, hi = quiet_flanks
        tangent = tangent_rd(problem, lo, hi, merge_tol=1e-4, dedup_tol=1e-3)
        classes = decoder_classes(lo, merge_tol=1e-4, zero_tol=1e-5)
        assert tangent.m == len(classes)
        # no transition between the flanks: the support stays put nearby
        for beta in (29.5, 30.2):
            sol = solve(tangent, beta, config=SolverConfig(epsilon=1e-12))
            assert int(np.sum(sol.marginal > 1e-6)) == len(classes)

    def test_solution_at_lower_flank_sits_on_minus_block(self, transition_flanks):
        """Below the transition the optimal tangent support is the minus-side
        class set; the genuinely new plus-side representative stays empty."""
        problem, lo, hi = transition_flanks
        n_lo = len(decoder_classes(lo, merge_tol=1e-4, zero_tol=1e-5))
        n_hi = len(decoder_classes(hi, merge_tol=1e-4, zero_tol=1e-5))
        assert n_hi == n_lo + 1
        tangent = tangent_rd(problem, lo, hi, merge_tol=1e-4, dedup_tol=5e-3)
        assert tangent.m == n_lo + 1
        sol = solve(tangent, lo.beta, config=SolverConfig(epsilon=1e-12))
        assert sol.marginal[n_lo:].max() < 1e-4
        assert sol.marginal[:n_lo].min() > 1e-3

    def test_rejects_unordered_flanks(self, quiet_flanks):
        problem, lo, hi = quiet_flanks
        with pytest.raises(ValueError, match="beta_minus"):
            tangent_rd(problem, hi, lo)

    def test_rejects_unconverged_flanks(self, quiet_flanks):
        problem, lo, hi = quiet_flanks
        import copy

        broken = copy.deepcopy(lo)
        broken.converged = False
        with pytest.raises(ValueError, match="converged"):
            tangent_rd(problem, broken, hi)

    def test_rejects_infinite_distortion(self):
        """Hard decoders with dead relevance symbols make the tangent
        distortion infinite, which the finite-distortion type cannot carry."""
        from rdspectral import IbSolution

        pxy = np.array(
            [[0.35, 0.0, 0.0], [0.0, 0.35, 0.0], [0.0, 0.0, 0.3]]
        )
        problem = IbProblem(pxy=pxy)

        def hard_solution(beta):
            enc = np.eye(3)
            return IbSolution(
                beta=beta,
                encoder=enc,
                marginal=problem.px @ enc,
                decoder=ib_decoder(problem, enc),
                rate=mutual_information(problem.px, enc),
                relevant_info=problem.relevant_information_ceiling(),
                iterations=1,
                converged=True,
            )

        with pytest.raises(ValueError, match="infinite"):
            tangent_rd(problem, hard_solution(4.8), hard_solution(5.0))
