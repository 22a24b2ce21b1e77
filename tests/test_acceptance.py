"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive sweeps are
shared through fixtures; the figure studies come from rdspectral.studies
(run once per session, see conftest.py) and every other configuration here
is frozen too (grids, seeds, tolerances), so the suite is deterministic end
to end.

Solver accuracies are chosen per check. Support bookkeeping at a mass
threshold t only makes sense when the stopping accuracy eps is well below t:
a successive-iterate rule leaves dying coordinates stranded near
eps / (1 - decay rate). Hence the kernel-dimension checks (threshold 1e-10)
run on eps <= 1e-13 solves, while the slowing-down sweeps, whose accuracies
(1e-9 and 1e-7) are part of what they measure, count support at 1e-5.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    ab_iterates,
    binary_hamming_distortion,
    binary_hamming_rate,
    eigenvalues_nonsymmetric,
    encoder_from_marginal,
    jacobian_finite_difference,
    jacobian_matrix,
    kernel_dimension_check,
    lagrangian,
    symmetrized_support_block,
)
from rdspectral import (
    RdProblem,
    SolverConfig,
    SweepConfig,
    ab_step,
    binary_hamming,
    detect_transitions,
    eigen_spectrum,
    jacobian,
    planar_four_point,
    rate_study,
    solve,
    studies,
    sweep,
)

ZERO_TOL = 1e-10

FIG1_TIGHT_GRID = np.geomspace(50.0, 0.2, 200)


def _verdict(name: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    if failures:
        pytest.fail(f"{name}: " + "; ".join(str(f) for f in failures))


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig1_problem():
    return planar_four_point()


@pytest.fixture(scope="module")
def fig2_problem(fig2_study):
    return fig2_study.problem


@pytest.fixture(scope="module")
def fig1_csd_sweep(fig1_study):
    """Reverse-annealed slowing-down sweep at the headline accuracy 1e-9."""
    return fig1_study.records


@pytest.fixture(scope="module")
def fig1_uniform_sweep(fig1_problem):
    return sweep(fig1_problem, replace(studies.FIG1, init="uniform"))


@pytest.fixture(scope="module")
def fig1_tight_sweep(fig1_problem):
    """High-accuracy sweep for kernel bookkeeping at the 1e-10 threshold."""
    config = SweepConfig(
        beta_grid=FIG1_TIGHT_GRID,
        init="reverse",
        solver=SolverConfig(epsilon=1e-13),
    )
    return sweep(fig1_problem, config)


@pytest.fixture(scope="module")
def fig2_sweep(fig2_study):
    return fig2_study.records


@pytest.fixture(scope="module")
def fig2_uniform_sweep(fig2_problem):
    return sweep(fig2_problem, replace(studies.FIG2, init="uniform"))


@pytest.fixture(scope="module")
def fig2_tangents(fig2_study):
    """Tangent problems at each detected bottleneck transition, with the
    study's fine sweep across the bracketing interval and a wide
    high-accuracy sweep."""
    report = fig2_study.transitions
    out = []
    for (lo_idx, hi_idx), tangent in zip(report.index_pairs, fig2_study.tangents):
        lo = fig2_study.records[lo_idx].solution
        hi = fig2_study.records[hi_idx].solution
        wide_cfg = SweepConfig(
            beta_grid=np.geomspace(3.0 * hi.beta, lo.beta / 3.0, 73),
            init="reverse",
            solver=SolverConfig(epsilon=1e-14),
        )
        wide = sweep(tangent.problem, wide_cfg)
        out.append(
            {
                "interval": (lo.beta, hi.beta),
                "lo_idx": lo_idx,
                "hi_idx": hi_idx,
                "tangent": tangent.problem,
                "fine": tangent.records,
                "wide": wide,
            }
        )
    return report, out


@pytest.fixture(scope="module")
def random_suite():
    """Fifty random problems solved to high accuracy (criteria 1 and 2)."""
    rng = np.random.default_rng(2024)
    instances = []
    for _ in range(50):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        problem = RdProblem(
            px=rng.dirichlet(np.ones(n)), d=rng.uniform(0, 1, (n, m))
        )
        beta = float(rng.uniform(0.5, 50.0))
        sol = solve(problem, beta, config=SolverConfig(epsilon=1e-13))
        instances.append((problem, sol))
    return instances


def _kernel_instances(fig1_tight_sweep, fig2_tangents, random_suite,
                      fig1_problem):
    """(problem, solution) pairs shared by the kernel and spectrum suites."""
    pairs = [(fig1_problem, r.solution) for r in fig1_tight_sweep if r.converged]
    _, tangents = fig2_tangents
    for entry in tangents:
        pairs.extend(
            (entry["tangent"], r.solution)
            for r in entry["wide"]
            if r.converged
        )
    pairs.extend((p, s) for p, s in random_suite if s.converged)
    return pairs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_dimension(
    fig1_tight_sweep, fig2_tangents, random_suite, fig1_problem
):
    """Kernel dimension equals the count of dead representatives everywhere."""
    pairs = _kernel_instances(
        fig1_tight_sweep, fig2_tangents, random_suite, fig1_problem
    )
    failures = []
    for problem, sol in pairs:
        kd, ss, ok = kernel_dimension_check(problem, sol, zero_tol=ZERO_TOL)
        if not ok:
            failures.append(
                f"beta={sol.beta:.4g}: kernel_dim={kd}, support={ss}, m={problem.m}"
            )
    _verdict(
        "criterion 1 (kernel dimension = dead representatives)",
        failures,
        f"{len(pairs)} converged solutions checked, 0 violations allowed",
    )


def test_criterion_2_spectrum_properties(
    fig1_tight_sweep, fig2_tangents, random_suite, fig1_problem
):
    """Real spectrum in [0, 1], symmetric similarity transform, and agreement
    with a general eigensolver on small alphabets."""
    pairs = _kernel_instances(
        fig1_tight_sweep, fig2_tangents, random_suite, fig1_problem
    )
    failures = []
    checked = oracle_checked = 0
    for problem, sol in pairs:
        jac = jacobian(problem, sol.marginal, sol.beta,
                       fixed_point_tol=float("inf"))
        report = eigen_spectrum(jac, zero_tol=ZERO_TOL)
        checked += 1
        if report.eigenvalues.min() < -1e-8 or report.eigenvalues.max() > 1 + 1e-8:
            failures.append(
                f"beta={sol.beta:.4g}: spectrum range "
                f"[{report.eigenvalues.min():.3g}, {report.eigenvalues.max():.3g}]"
            )
        s = symmetrized_support_block(problem, sol.marginal, sol.beta, ZERO_TOL)
        if s.size and np.max(np.abs(s - s.T)) > 1e-10:
            failures.append(f"beta={sol.beta:.4g}: symmetrization asymmetric")
        if problem.m <= 5:
            oracle_checked += 1
            dense = np.sort(eigenvalues_nonsymmetric(jac).real)
            if np.max(np.abs(dense - report.eigenvalues)) > 1e-7:
                failures.append(
                    f"beta={sol.beta:.4g}: dense eigensolver disagrees by "
                    f"{np.max(np.abs(dense - report.eigenvalues)):.3g}"
                )
    _verdict(
        "criterion 2 (real [0,1] spectrum, symmetrization, dense-solver oracle)",
        failures,
        f"{checked} spectra, {oracle_checked} dense cross-checks",
    )


def test_criterion_3_jacobian_finite_difference():
    """Analytic Jacobian matches central differences at interior solutions."""
    rng = np.random.default_rng(77)
    failures = []
    checked = 0
    while checked < 20:
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        problem = RdProblem(
            px=rng.dirichlet(np.ones(n)), d=rng.uniform(0, 1, (n, m))
        )
        beta = float(rng.uniform(5.0, 40.0))
        sol = solve(problem, beta, config=SolverConfig(epsilon=1e-12))
        if not sol.converged or np.any(sol.marginal < 1e-3):
            continue
        checked += 1
        jac = jacobian(problem, sol.marginal, beta)
        fd = jacobian_finite_difference(problem, sol.marginal, beta, step=1e-6)
        gap = float(np.max(np.abs(fd - jacobian_matrix(jac))))
        if gap > 1e-6:
            failures.append(f"beta={beta:.4g}: max-abs gap {gap:.3g}")
    _verdict(
        "criterion 3 (analytic vs finite-difference Jacobian)",
        failures,
        "20 interior solutions, step 1e-6, tolerance 1e-6",
    )


def test_criterion_4_rate_law():
    """Measured iterations track the spectral prediction as accuracy tightens."""
    problem = binary_hamming(0.8)
    points = rate_study(problem, beta=2.5, epsilons=[1e-6, 1e-12],
                        anchor_beta=8.0)
    by_eps = {p.epsilon: p for p in points}
    coarse, tight = by_eps[1e-6], by_eps[1e-12]
    failures = []
    if not 0.3 <= tight.lambda_max <= 0.9:
        failures.append(f"lambda_max {tight.lambda_max:.4f} outside [0.3, 0.9]")
    rel_tight = abs(tight.measured_rate - tight.predicted_rate) / tight.predicted_rate
    rel_coarse = (
        abs(coarse.measured_rate - coarse.predicted_rate) / coarse.predicted_rate
    )
    if rel_tight > 0.10:
        failures.append(f"relative error {rel_tight:.3f} at eps=1e-12 exceeds 10%")
    if rel_tight > rel_coarse + 0.05:
        failures.append(
            f"error grew from {rel_coarse:.3f} (1e-6) to {rel_tight:.3f} (1e-12)"
        )
    _verdict(
        "criterion 4 (asymptotic rate law under reverse annealing)",
        failures,
        f"lambda_max={tight.lambda_max:.3f}, measured/predicted="
        f"{tight.measured_rate / tight.predicted_rate:.3f} at eps=1e-12",
    )


def test_criterion_5_closed_form_oracle():
    """Binary symmetric Hamming solutions match the closed-form curve."""
    problem = binary_hamming()
    failures = []
    for beta in (0.5, np.log(3.0), 2.0, 5.0):
        sol = solve(problem, beta, config=SolverConfig(epsilon=1e-12))
        want_d = binary_hamming_distortion(beta)
        want_r = binary_hamming_rate(0.5, beta)
        if abs(sol.distortion - want_d) > 1e-6:
            failures.append(f"beta={beta:.4g}: distortion off by "
                            f"{abs(sol.distortion - want_d):.2g}")
        if abs(sol.rate - want_r) > 1e-6:
            failures.append(f"beta={beta:.4g}: rate off by "
                            f"{abs(sol.rate - want_r):.2g}")
    _verdict(
        "criterion 5 (closed-form binary Hamming oracle)",
        failures,
        "beta in {0.5, log 3, 2, 5}, tolerance 1e-6",
    )


def _csd_failures(records, label, expected_transitions):
    report = detect_transitions(records)
    failures = []
    if len(report.intervals) != expected_transitions:
        failures.append(
            f"{label}: {len(report.intervals)} transitions detected, "
            f"expected {expected_transitions}"
        )
        return failures, report, []
    iters = np.array([r.iterations for r in records])
    median = float(np.median(iters))
    ratios = []
    for _, hi_idx in report.index_pairs:
        window = iters[hi_idx:hi_idx + 3]
        ratio = float(window.max() / median)
        ratios.append(ratio)
        if ratio < 10.0:
            failures.append(
                f"{label}: local max {window.max()} is only {ratio:.1f}x the "
                f"median {median}"
            )
    return failures, report, ratios


def test_criterion_6_critical_slowing_down(fig1_csd_sweep, fig2_sweep):
    """Iteration spikes of at least an order of magnitude at each transition."""
    failures_rd, _, ratios_rd = _csd_failures(fig1_csd_sweep, "planar sweep", 3)
    failures_ib, _, ratios_ib = _csd_failures(fig2_sweep, "bottleneck sweep", 3)
    _verdict(
        "criterion 6 (critical slowing down at every transition)",
        failures_rd + failures_ib,
        "spike/median ratios: planar "
        + ", ".join(f"{r:.0f}x" for r in ratios_rd)
        + "; bottleneck "
        + ", ".join(f"{r:.0f}x" for r in ratios_ib),
    )


def test_criterion_7_bottleneck_structure(fig2_sweep, fig2_tangents):
    """Three cardinality transitions, each mirrored by its tangent problem."""
    report, tangents = fig2_tangents
    failures = []

    cards = [r.effective_cardinality for r in fig2_sweep]
    if len(report.intervals) != 3:
        failures.append(f"{len(report.intervals)} transitions, expected 3")
    if sorted(set(cards)) != [1, 2, 3, 4]:
        failures.append(f"cardinality values {sorted(set(cards))} != [1, 2, 3, 4]")
    if any(c2 < c1 for c1, c2 in zip(cards, cards[1:])):
        failures.append("effective cardinality is not non-decreasing")

    details = []
    for entry in tangents:
        lo_beta, hi_beta = entry["interval"]
        fine = entry["fine"]
        fine_report = detect_transitions(fine)
        inside = [
            (lo, hi)
            for lo, hi in fine_report.intervals
            if lo_beta <= lo and hi <= hi_beta
        ]
        if not inside:
            failures.append(
                f"tangent at ({lo_beta:.3f}, {hi_beta:.3f}): no support "
                f"transition inside the bracket (found {fine_report.intervals})"
            )
        # smallest positive eigenvalue along the fine sweep, classified at
        # the same mass threshold the sweep uses, so slowly-dying branches
        # stranded by the finite stopping accuracy read as dead rather than
        # as spurious near-zero modes
        lam0 = []
        for r in fine:
            if not r.converged:
                continue
            rep = eigen_spectrum(
                jacobian(entry["tangent"], r.marginal, r.beta,
                         fixed_point_tol=float("inf")),
                zero_tol=studies.SUPPORT_TOL,
            )
            lam0.append(0.0 if rep.at_criticality else rep.lambda0)
        top = lam0[-1]
        if not min(lam0) <= 0.1 * top:
            failures.append(
                f"tangent at ({lo_beta:.3f}, {hi_beta:.3f}): lambda0 min "
                f"{min(lam0):.3g} does not dip below 0.1 x {top:.3g}"
            )
        details.append(f"min lambda0 {min(lam0):.1e} vs flank {top:.2e}")
    _verdict(
        "criterion 7 (bottleneck transitions mirrored by tangent problems)",
        failures,
        "; ".join(details),
    )


def test_criterion_7b_iteration_dominance(fig2_problem, fig2_sweep, fig2_tangents):
    """Just above each transition the bottleneck iteration works at least as
    hard as its tangent problem under matched warm starts."""
    report, tangents = fig2_tangents
    failures = []
    details = []
    for entry in tangents:
        hi_idx = entry["hi_idx"]
        tangent = entry["tangent"]
        hi_beta = fig2_sweep[hi_idx].beta
        above_beta = fig2_sweep[hi_idx + 1].beta
        k_ib = fig2_sweep[hi_idx].iterations
        anchor = solve(tangent, above_beta, config=SolverConfig(epsilon=1e-13))
        p0 = np.where(anchor.marginal > ZERO_TOL, anchor.marginal, 0.0)
        p0 = p0 / p0.sum()
        k_rd = solve(
            tangent, hi_beta, init=p0, config=SolverConfig(epsilon=1e-7)
        ).iterations
        details.append(f"IB {k_ib} vs tangent {k_rd} at beta {hi_beta:.3f}")
        if k_ib < k_rd:
            failures.append(
                f"bottleneck did fewer iterations ({k_ib}) than its tangent "
                f"problem ({k_rd}) at beta {hi_beta:.4g}"
            )
    _verdict(
        "criterion 7b (bottleneck at least as slow as its tangent problem)",
        failures,
        "; ".join(details),
    )


def test_criterion_8_iteration_sanity(fig1_problem):
    """Lagrangian descent, exact simplex preservation, identity at beta 0."""
    failures = []
    rng = np.random.default_rng(512)

    problems = [fig1_problem]
    for _ in range(10):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        problems.append(
            RdProblem(px=rng.dirichlet(np.ones(n)), d=rng.uniform(0, 1, (n, m)))
        )
    for problem in problems:
        beta = float(rng.uniform(0.5, 20.0))
        sol = solve(problem, beta, config=SolverConfig(epsilon=1e-11))
        uniform = np.full(problem.m, 1.0 / problem.m)
        values = [
            lagrangian(problem, encoder_from_marginal(problem, q, beta), beta)
            for q in ab_iterates(problem, uniform, beta, sol.iterations)
        ]
        worst = float(np.max(np.diff(values))) if len(values) > 1 else 0.0
        if worst > 1e-12:
            failures.append(f"Lagrangian rose by {worst:.3g} along a trace")

    for _ in range(200):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        problem = RdProblem(
            px=rng.dirichlet(np.ones(n)), d=rng.uniform(0, 1, (n, m))
        )
        q = rng.dirichlet(np.ones(m))
        out = ab_step(problem, q, float(rng.uniform(0, 30)))
        if np.any(out < 0) or abs(out.sum() - 1.0) > 1e-12:
            failures.append("simplex violated by an iteration step")

    q = rng.dirichlet(np.ones(4))
    problem = planar_four_point()
    if np.max(np.abs(ab_step(problem, q, 0.0) - q)) > 1e-14:
        failures.append("iteration at beta 0 is not the identity")
    sol0 = solve(problem, 0.0)
    if not (sol0.converged and sol0.iterations <= 1 and sol0.rate < 1e-12):
        failures.append("solve at beta 0 did not stop immediately")

    _verdict(
        "criterion 8 (descent, simplex preservation, beta-0 identity)",
        failures,
        "11 traces, 200 random steps",
    )


def _dominance_fraction(rev_records, uni_records):
    shared = [
        (a, b)
        for a, b in zip(rev_records, uni_records)
        if a.converged and b.converged
    ]
    good = sum(1 for a, b in shared if a.iterations <= b.iterations + 1)
    return good / len(shared), len(shared)


def test_criterion_9_annealing_dominance(
    fig1_csd_sweep, fig1_uniform_sweep, fig2_sweep, fig2_uniform_sweep
):
    """Reverse annealing beats uniform starts almost everywhere."""
    failures = []
    frac_rd, n_rd = _dominance_fraction(fig1_csd_sweep, fig1_uniform_sweep)
    frac_ib, n_ib = _dominance_fraction(fig2_sweep, fig2_uniform_sweep)
    if frac_rd < 0.95:
        failures.append(f"planar sweep dominance only {frac_rd:.3f}")
    if frac_ib < 0.95:
        failures.append(f"bottleneck sweep dominance only {frac_ib:.3f}")
    _verdict(
        "criterion 9 (reverse annealing dominates uniform starts)",
        failures,
        f"planar {frac_rd:.1%} of {n_rd}, bottleneck {frac_ib:.1%} of {n_ib}",
    )
