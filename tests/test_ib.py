"""Unit tests for the bottleneck problem type, iteration and tangent construction."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_of,
    count_flushes,
    decoder_reference,
    ib_functional,
    ib_update_reference,
    relevance_reference,
    stepped_ib_solve,
    unreplayed_calls,
)
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
from rdspectral import rd as rdmod

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

    @pytest.mark.parametrize("m", [2.5, True, False, np.float64(3.7), 3.0, "3", None])
    def test_rejects_non_integer_m(self, m):
        """m = 2.5 used to give 2, True 1 and np.float64(3.7) 3; "3" raised
        a TypeError."""
        pxy = [[0.3, 0.1], [0.1, 0.2], [0.2, 0.1]]
        with pytest.raises(ValueError, match="^m must be an integer$"):
            IbProblem(pxy=pxy, m=m)
        with pytest.raises(ValueError, match="^m must be an integer$"):
            IbProblem.from_json_dict({"pxy": pxy, "m": m})

    @pytest.mark.parametrize(
        "pxy, m, message",
        [
            ([0.5, 0.5], 0, "pxy must be a non-empty 2-d matrix"),
            ([[np.nan, 0.5], [0.2, 0.3]], 0, "pxy contains non-finite entries"),
            ([[0.0, 0.0], [0.0, 0.0]], 0, "pxy is identically zero"),
            ([[0.5, 0.0], [0.0, 0.5]], -1, "representation alphabet must be non-empty"),
        ],
    )
    def test_boundary_rejections(self, pxy, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IbProblem(pxy=pxy, m=m)

    def test_json_form_needs_a_joint(self):
        with pytest.raises(ValueError,
                           match="^bottleneck problem needs either 'pxy' or 'px' \\+ 'py_given_x'$"):
            IbProblem.from_json_dict({"m": 2})

    @pytest.mark.parametrize("m, kept", [(2, 2), (np.int64(5), 5), (0, 3)])
    def test_accepts_integer_m(self, m, kept):
        problem = IbProblem(pxy=[[0.3, 0.1], [0.1, 0.2], [0.2, 0.1]], m=m)
        assert problem.m == kept and type(problem.m) is int
        assert IbProblem.from_json_dict(problem.to_json_dict()).m == kept

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


class TestDecoderMarginalRejection:
    """Every encoder row can have mass while px @ encoder underflows to
    zero: 5e-324 times a source mass below one rounds to 0."""

    def test_underflowing_marginal_is_rejected(self):
        problem = IbProblem(pxy=[[.2, .05], [.05, .2], [.125, .125], [.1, .15]], m=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^encoder induces an all-zero marginal$"):
                ib_decoder(problem, np.full((4, 1), 5e-324))


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


class TestStepEncoderRejection:
    """ib_step checks its encoder as ib_solve checks its init encoder. A row
    [2, -1, 0, 0] used to return a normal-looking encoder, an all-zero row
    iterated silently, and a NaN or inf encoder raised the misleading "lost
    all mass" error."""

    @pytest.mark.parametrize(
        "row, match",
        [
            ([2.0, -1.0, 0.0, 0.0], "^encoder has negative entries$"),
            ([0.0, 0.0, 0.0, 0.0], "^encoder has an all-zero row$"),
            ([np.nan, 0.5, 0.5, 0.0], "^encoder contains non-finite entries$"),
            ([np.inf, 0.5, 0.5, 0.0], "^encoder contains non-finite entries$"),
            ([-np.inf, 0.5, 0.5, 0.0], "^encoder contains non-finite entries$"),
        ],
    )
    def test_rejects(self, row, match):
        problem = bottleneck_four_symbol()
        enc = identity_encoder_init(problem)
        enc[1] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                ib_step(problem, enc, 10.0)

    def test_rejects_wrong_shape(self):
        problem = bottleneck_four_symbol()
        with pytest.raises(ValueError, match="^encoder shape does not match the problem$"):
            ib_step(problem, np.eye(4)[:, :3], 10.0)


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

    def test_beta_zero_takes_zero_times_inf_as_zero(self):
        """The identity encoder's decoder row 0 has no mass where p(y|x=1)
        has some, so that relevance distortion is inf; at beta 0 it weighs
        nothing and every row becomes the marginal. This used to raise
        "encoder update lost all mass on some row"."""
        problem = IbProblem(pxy=[[0.5, 0.0], [0.25, 0.25]])
        stepped, _, _ = ib_step(problem, np.eye(2), 0.0)
        np.testing.assert_array_equal(stepped, [[0.5, 0.5], [0.5, 0.5]])
        sol = ib_solve(problem, 0.0, init_encoder=np.eye(2))
        assert sol.converged
        np.testing.assert_array_equal(sol.encoder, [[0.5, 0.5], [0.5, 0.5]])

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
        recomputed = ib_decoder(problem, sol.encoder)
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
        # A reverse sweep's warm start, snapped at a threshold that kills a
        # representative here.
        start = np.where(hi.marginal > 1e-5, hi.encoder, 0.0)
        start /= start.sum(axis=1, keepdims=True)
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
        assert sol.decoder.tobytes() == ib_decoder(problem, enc).tobytes()
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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_history_rows_stay_cache_aligned(self, monkeypatch, order):
        """Every history row an ib_solve step writes, all 64 of a full
        block, starts on a cache line and has the strides of ib_step's
        output, on a C- and on an F-ordered pxy."""
        problem = bottleneck_four_symbol() if order == "C" else self._column_permuted()
        assert problem.pxy.flags[f"{order}_CONTIGUOUS"]
        init = identity_encoder_init(problem)
        strides = ib_step(problem, init, 25.0)[0].strides
        assert strides == ((8 * problem.m, 8) if order == "C" else (8, 8 * problem.n))
        written = set()

        def recording(step, encoder, b):
            new = step(encoder, b)
            written.add((b, new.ctypes.data % rdmod._CACHE_LINE, new.strides))
            return new

        wrap_ib_steps(monkeypatch, recording)
        assert ib_solve(problem, 25.0, init_encoder=init, config=EPS7).iterations > 1000
        assert written == {(b, 0, strides) for b in range(1, rdmod._BLOCK + 1)}

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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       order=st.sampled_from(["C", "F"]),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 500.0, exclude_min=True)),
       budget=st.sampled_from([1, 2, 63, 1000]))
def test_solved_encoder_rows_keep_a_share_of_one_over_m(seed, order, beta, budget):
    """Every row of an encoder the bottleneck map writes has its largest
    entry equal to 1 / norm, and norm sums m terms of at most 1, so the
    entry is at least 1 / m; with px > 0 the marginal then cannot vanish,
    which is why ib_solve checks no marginal after its loop. Joints have
    zero entries and either layout, and starts have exact zeros."""
    rng = np.random.default_rng(seed)
    n, ny = (int(v) for v in rng.integers(2, 6, 2))
    m = int(rng.integers(1, 6))
    pxy = rng.dirichlet(np.ones(n * ny)).reshape(n, ny)
    pxy[rng.random((n, ny)) < 0.3] = 0.0
    pxy[np.arange(n), np.arange(n) % ny] += 0.5 / n
    problem = IbProblem(pxy=np.asarray(pxy, order=order), m=m)
    init = rng.dirichlet(np.ones(m), size=n)
    init[rng.random((n, m)) < 0.3] = 0.0
    init[np.arange(n), rng.integers(m, size=n)] += 0.5
    sol = ib_solve(problem, beta, init_encoder=init,
                   config=SolverConfig(max_iterations=budget))
    assert (sol.encoder.max(axis=1) >= 1.0 / m).all()
    assert abs(sol.marginal.sum() - 1.0) <= 1e-12


def count_ib_steps(monkeypatch) -> list:
    """Count the bottleneck steps taken. Returns the one-item list that
    holds the count."""
    calls = [0]

    def counting(step, encoder, b):
        calls[0] += 1
        return step(encoder, b)

    wrap_ib_steps(monkeypatch, counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([63, 64, 65, 129, 1100]),
       norm=st.sampled_from(["l1", "linf"]))
def test_sub_normal_masses_are_flushed_inside_blocks(seed, budget, norm):
    """Starts hold masses of 1e-300 to 1e-290 in whole encoder columns, and
    beta up to 300 drives such columns, and the far entries of live ones,
    into the sub-normal range. ib_solve gives repeated ib_step's encoder,
    marginal, count and flag bit for bit, and runs a block again only when
    it flushes, at most 63 extra steps per flushed mass."""
    rng = np.random.default_rng(seed)
    n, ny, m = (int(v) for v in rng.integers(2, 6, 3))
    problem = IbProblem(pxy=rng.dirichlet(np.ones(n * ny)).reshape(n, ny), m=m)
    init = rng.dirichlet(np.ones(m), size=n)
    init[np.arange(n), rng.integers(m, size=n)] += 0.5
    tiny = rng.permutation(m)[:int(rng.integers(1, m))]
    init[:, tiny] = 10.0 ** -rng.uniform(290.0, 300.0, tiny.size)
    beta = float(rng.uniform(5.0, 300.0))
    config = SolverConfig(epsilon=10.0 ** -rng.uniform(4.0, 320.0), norm=norm,
                          max_iterations=budget)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_ib_steps(patch)
        flushed = count_flushes(patch)
        sol = ib_solve(problem, beta, init_encoder=init, config=config)
    encoder, marginal, iterations, converged = stepped_ib_solve(problem, init, beta, config)
    assert sol.encoder.tobytes(order="A") == encoder.tobytes(order="A")
    assert sol.marginal.tobytes() == marginal.tobytes()
    assert sol.iterations == iterations
    assert sol.converged == converged
    replays = calls[0] - unreplayed_calls(iterations, converged, budget)
    assert 0 <= replays <= 63 * flushed[0]


def test_a_sub_normal_fixed_point_entry_flushes_every_step():
    """Symbols 0 and 1 share a cluster that symbol 2, with p(y=1|x) = 1e-7,
    stays out of; at beta 110 their encoder entries for symbol 2's
    representative sit in the sub-normal range, so every step makes them
    again and flushes them. Each block from the first flush on runs again
    from its first sub-normal row, and no block runs again more than once,
    so the solve makes fewer than twice the calls of one that runs no block
    again; it is repeated ib_step, bit for bit."""
    pyx = np.array([[0.547, 0.453], [0.453, 0.547], [1.0 - 1e-7, 1e-7]])
    problem = IbProblem(pxy=pyx * np.array([0.4, 0.4, 0.2])[:, None], m=3)
    config = SolverConfig(epsilon=1e-12)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_ib_steps(patch)
        flushed = count_flushes(patch)
        sol = ib_solve(problem, 110.0, config=config)
    encoder, marginal, iterations, converged = stepped_ib_solve(
        problem, uniform_encoder_init(problem), 110.0, config)
    assert sol.encoder.tobytes() == encoder.tobytes() and encoder[0, 2] == 0.0
    assert sol.marginal.tobytes() == marginal.tobytes()
    assert (sol.iterations, sol.converged) == (iterations, converged) == (764, True)
    assert flushed[0] > iterations
    unreplayed = unreplayed_calls(iterations, converged, config.max_iterations)
    assert unreplayed < calls[0] < 2 * unreplayed and calls[0] == 1527


def _same_array(got, want) -> bool:
    return (got.shape == want.shape and got.strides == want.strides
            and got.tobytes(order="A") == want.tobytes(order="A"))


def _draw_problem_and_encoder(rng, pxy_order: str, encoder_order: str, blank: bool):
    """A random problem in pxy_order, with zero entries in pxy when blank
    (the blanked relevance terms), and an encoder in encoder_order whose
    dead columns are the False entries of the returned live mask. From 16
    source symbols on, the decoder product rounds differently on a C- and
    an F-ordered weighted encoder, so 3 in 10 draws have 16 to 24."""
    n, ny, m = (int(v) for v in rng.integers(2, 6, 3))
    if rng.random() < 0.3:
        n = int(rng.integers(16, 25))
    pxy = rng.dirichlet(np.ones(n * ny)).reshape(n, ny)
    if blank:
        pxy[rng.random((n, ny)) < 0.3] = 0.0
        pxy[0, 0] = 0.0
        pxy[1, 0] += 0.2
        pxy[np.arange(n), 1 + rng.integers(ny - 1, size=n)] += 0.1
    problem = IbProblem(pxy=np.asarray(pxy, order=pxy_order), m=m)
    assert problem.pxy.flags[f"{pxy_order}_CONTIGUOUS"]
    live = rng.random(m) < 0.6
    live[rng.integers(m)] = True
    encoder = rng.dirichlet(np.ones(m), size=n) * live
    encoder[rng.random((n, m)) < 0.2] = 0.0
    encoder[np.arange(n), rng.choice(np.flatnonzero(live), size=n)] += 0.5
    return problem, np.asarray(encoder, order=encoder_order), live


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       pxy_order=st.sampled_from("CF"),
       encoder_order=st.sampled_from("CF"),
       decoder_order=st.sampled_from("CF"))
def test_one_shot_maps_are_the_reference_bit_for_bit(seed, pxy_order, encoder_order,
                                                    decoder_order):
    """ib_decoder and ib_distortion compute the decoder and the relevance
    distortion outside the bound map, and agree with the reference's lines
    for them bit for bit, strides included: on C- and F-ordered pxy with
    zero entries, encoders in either layout with dead columns, and
    decoders in either layout with 1 to 5 rows and some zeros (infinite
    distortions). The relevance sums round in the layout of the decoder's
    log, which must be C-ordered whatever the decoder's layout."""
    rng = np.random.default_rng(seed)
    problem, encoder, live = _draw_problem_and_encoder(rng, pxy_order, encoder_order, True)
    decoder = ib_decoder(problem, encoder)
    assert _same_array(decoder, decoder_reference(problem, encoder, problem.px @ encoder))
    assert np.all(decoder[~live] == problem.py)

    rows = rng.dirichlet(np.ones(problem.ny), size=int(rng.integers(1, 6)))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[:, 0] += 0.1
    for decoder in (decoder, rows):
        decoder = np.asarray(decoder, order=decoder_order)
        assert _same_array(ib_distortion(problem, decoder),
                           relevance_reference(problem, decoder))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       pxy_order=st.sampled_from("CF"),
       encoder_order=st.sampled_from("CF"),
       blank=st.booleans(),
       beta_kind=st.sampled_from(["zero", "random", "large"]))
def test_bound_map_is_the_reference_bit_for_bit(seed, pxy_order, encoder_order, blank,
                                               beta_kind):
    """The map ib_solve and ib_step step through divides the decoder by the
    marginal itself and leaves dead logits at log 0 = -inf; the reference
    divides by a zero-safe copy and fills them. The map leaves sub-normal
    masses to its callers, so its encoder is compared after the flush that
    ib_step and the block loop apply. Encoder, marginal and
    decoder agree bit for bit, strides included, on C- and F-ordered pxy,
    pxy with zeros (the blanked relevance terms), encoders with dead
    columns in either layout, and beta 0, random and 1e3."""
    rng = np.random.default_rng(seed)
    problem, encoder, live = _draw_problem_and_encoder(rng, pxy_order, encoder_order, blank)
    beta = {"zero": 0.0, "random": float(rng.uniform(0.0, 50.0)), "large": 1e3}[beta_kind]

    want_encoder, want_marginal, want_decoder = ib_update_reference(problem, encoder, beta)
    buf = ibmod._IbBuffers(problem)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new = ibmod._ib_map(problem, beta, buf)(encoder, 1)
    assert np.shares_memory(new, buf.rows[1])
    assert _same_array(rdmod._flush(new), want_encoder)
    assert _same_array(buf.marginal, want_marginal)
    assert _same_array(buf.dec, want_decoder)

    assert np.all(np.isfinite(new))
    assert np.all(new[:, ~live] == 0.0)
    stepped, marginal, decoder = ib_step(problem, encoder, beta)
    assert _same_array(stepped, want_encoder)
    assert _same_array(marginal, problem.px.dot(want_encoder))
    assert _same_array(decoder, want_decoder)


def wrap_ib_steps(monkeypatch, wrapper) -> None:
    """Have every bottleneck map that ib_solve binds step through
    wrapper(step, encoder, b)."""
    bind = ibmod._ib_map

    def bound(*args):
        step = bind(*args)
        return lambda encoder, b: wrapper(step, encoder, b)

    monkeypatch.setattr(ibmod, "_ib_map", bound)


def poison_ib_step(monkeypatch, call: int) -> None:
    """Make the call-th bottleneck step (counted from 1) write NaN into the
    encoder it returns."""
    calls = [0]

    def poisoned(step, encoder, b):
        new = step(encoder, b)
        calls[0] += 1
        if calls[0] == call:
            new.fill(np.nan)
        return new

    wrap_ib_steps(monkeypatch, poisoned)


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
        seen = []

        def recording(step, encoder, b):
            seen.append(encoder)
            return step(encoder, b)

        wrap_ib_steps(monkeypatch, recording)
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

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_rejects_dedup_tol_that_is_not_finite_and_positive(self, quiet_flanks, tol):
        """A NaN or negative dedup_tol used to keep every plus-side class and
        an infinite one to drop them all."""
        problem, lo, hi = quiet_flanks
        with pytest.raises(ValueError, match="^dedup_tol must be finite and positive$"):
            tangent_rd(problem, lo, hi, merge_tol=1e-4, dedup_tol=tol)

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
