"""Command-line interface for solving, sweeping and reporting.

`sweep` runs one annealing sweep of either problem kind and writes its
reports. `tangent` and `study` run the bottleneck pipeline of
`rdspectral.studies`, which follows each detected transition through its
tangent rate-distortion problem.

Exit codes:
  0  success, including a `tangent` sweep that detects no transition;
  1  usage errors: bad flags or values, unknown builtins, problem files that
     cannot be loaded;
  2  numerical failure;
  3  a single-point solve (`solve`, `spectrum`) that does not converge within
     its budget.
"""

import json
import sys

import click
import numpy as np

from . import ib as ibmod
from . import rd as rdmod
from . import studies
from .ib import IbProblem
from .probability import DEFAULT_ZERO_TOL, NumericalError
from .problems import BUILTIN_PROBLEMS, builtin_problem, dump_problem, load_problem
from .rd import SolverConfig, _check_tolerance
from .reports import REPORT_FORMATS, emit_reports, write_rate_study_csv
from .spectral import eigen_spectrum, jacobian
from .sweeps import INIT_POLICIES, SweepConfig, detect_transitions, rate_study, sweep

EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_NO_CONVERGENCE = 3


def _load(problem_path, builtin):
    if (problem_path is None) == (builtin is None):
        raise click.UsageError("provide exactly one of --problem or --builtin")
    if builtin is not None:
        return builtin_problem(builtin)
    try:
        return load_problem(problem_path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load {problem_path}: {exc}") from exc


def _beta_grid(beta_min, beta_max, beta_steps, log_grid, descending):
    if beta_min is None or beta_max is None:
        raise click.UsageError("--beta-min and --beta-max are required for sweeps")
    if not 0 <= beta_min < beta_max:
        raise click.UsageError("need 0 <= beta-min < beta-max")
    if beta_steps < 2:
        raise click.UsageError("--beta-steps must be at least 2")
    if log_grid and beta_min <= 0:
        raise click.UsageError("--log-grid needs beta-min > 0")
    space = np.geomspace if log_grid else np.linspace
    # Built in sweep order, so a descending grid is bit for bit the one a
    # study declares with the same end points.
    if descending:
        return space(beta_max, beta_min, beta_steps)
    return space(beta_min, beta_max, beta_steps)


def problem_options(f):
    f = click.option("--problem", "problem_path", type=click.Path(), default=None,
                     help="JSON problem file.")(f)
    f = click.option("--builtin", type=str, default=None,
                     help="Name of a builtin problem.")(f)
    return f


def budget_options(f):
    return click.option("--max-iters", type=int, default=rdmod.DEFAULT_MAX_ITERATIONS,
                        show_default=True)(f)


def solver_options(f):
    f = click.option("--epsilon", type=float, default=rdmod.DEFAULT_EPSILON,
                     show_default=True, help="Successive-iterate stopping distance.")(f)
    f = click.option("--norm", type=click.Choice(["l1", "linf"]), default="linf",
                     show_default=True)(f)
    return budget_options(f)


def sweep_options(f):
    f = click.option("--beta-min", type=float, default=None)(f)
    f = click.option("--beta-max", type=float, default=None)(f)
    f = click.option("--beta-steps", type=int, default=600, show_default=True)(f)
    f = click.option("--log-grid/--linear-grid", default=True, show_default=True)(f)
    f = click.option("--support-tol", type=float, default=DEFAULT_ZERO_TOL,
                     show_default=True, help="Support-count threshold.")(f)
    f = click.option("--merge-tol", type=float, default=ibmod.DEFAULT_MERGE_TOL,
                     show_default=True,
                     help="Decoder-row clustering tolerance (bottleneck only).")(f)
    f = click.option("--out", "out_dir", type=click.Path(), default="rdspectral-out",
                     show_default=True)(f)
    return f


def _sweep_config(grid, init, solver, merge_tol, support_tol, seed=0) -> SweepConfig:
    """The sweep settings of a command's flags. Warns when support is counted
    below 100 x epsilon, where a dying coordinate can still be stranded."""
    if support_tol < 100 * solver.epsilon:
        click.echo(f"warning: --support-tol {support_tol:g} is below 100 x --epsilon "
                   f"{solver.epsilon:g}; dying representatives may still count as "
                   "support", err=True)
    return SweepConfig(beta_grid=grid, init=init, solver=solver, seed=seed,
                       merge_tol=merge_tol, support_tol=support_tol)


def _parse_formats(text):
    formats = tuple(t.strip() for t in text.split(",") if t.strip())
    unknown = set(formats) - set(REPORT_FORMATS)
    if unknown:
        raise click.UsageError(f"unknown formats: {sorted(unknown)}")
    return formats


def _echo_run(transitions, manifest):
    for lo, hi in transitions.intervals:
        click.echo(f"transition bracketed in beta = ({lo:g}, {hi:g})")
    for path in manifest:
        click.echo(f"wrote {path}")


@click.group()
def cli():
    """Rate-distortion and information-bottleneck solvers with spectral
    convergence diagnostics."""


@cli.command("solve")
@problem_options
@solver_options
@click.option("--beta", type=float, required=True)
def solve_cmd(problem_path, builtin, beta, epsilon, norm, max_iters):
    """Solve one problem at a single beta and print the solution as JSON."""
    problem = _load(problem_path, builtin)
    config = SolverConfig(epsilon=epsilon, norm=norm, max_iterations=max_iters)
    if isinstance(problem, IbProblem):
        sol = ibmod.ib_solve(problem, beta, config=config)
    else:
        sol = rdmod.solve(problem, beta, config=config)
    click.echo(json.dumps(sol.to_json_dict(), indent=1))
    if not sol.converged:
        click.echo(f"did not converge within {max_iters} iterations", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


@cli.command("spectrum")
@problem_options
@solver_options
@click.option("--beta", type=float, required=True)
@click.option("--zero-tol", type=float, default=DEFAULT_ZERO_TOL, show_default=True,
              help="Mass at or below which a representative counts as dead.")
def spectrum_cmd(problem_path, builtin, beta, epsilon, norm, max_iters, zero_tol):
    """Solve at one beta and print the fixed-point spectral report as JSON."""
    _check_tolerance(zero_tol, "zero_tol")
    problem = _load(problem_path, builtin)
    if isinstance(problem, IbProblem):
        raise click.UsageError(
            "spectrum applies to rate-distortion problems; analyze a bottleneck "
            "through its tangent problem instead (see the tangent command)"
        )
    config = SolverConfig(epsilon=epsilon, norm=norm, max_iterations=max_iters)
    sol = rdmod.solve(problem, beta, config=config)
    jac = jacobian(problem, sol.marginal, beta,
                   fixed_point_tol=float("inf") if not sol.converged else 1e-6)
    report = eigen_spectrum(jac, zero_tol=zero_tol)
    click.echo(json.dumps(report.to_json_dict(), indent=1))
    if not sol.converged:
        click.echo("warning: diagnostics taken at an unconverged point", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


@cli.command("sweep")
@problem_options
@solver_options
@sweep_options
@click.option("--init", type=click.Choice(INIT_POLICIES), default="uniform",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--formats", type=str, default=",".join(REPORT_FORMATS), show_default=True,
              help="Comma-separated subset of the default.")
def sweep_cmd(problem_path, builtin, epsilon, norm, max_iters, beta_min,
              beta_max, beta_steps, log_grid, support_tol, merge_tol, out_dir, init,
              seed, formats):
    """Sweep a rate-distortion or bottleneck problem over a beta grid and
    write its reports."""
    problem = _load(problem_path, builtin)
    solver = SolverConfig(epsilon=epsilon, norm=norm, max_iterations=max_iters)
    formats = _parse_formats(formats)
    grid = _beta_grid(beta_min, beta_max, beta_steps, log_grid,
                      descending=(init == "reverse"))
    config = _sweep_config(grid, init, solver, merge_tol, support_tol, seed)
    records = sweep(problem, config)
    transitions = detect_transitions(records)
    _echo_run(transitions, emit_reports(records, transitions, out_dir, formats))


@cli.command("rate-study")
@problem_options
@budget_options
@click.option("--beta", type=float, required=True)
@click.option("--anchor-beta", type=float, default=None,
              help="Warm-start solution's beta; defaults to 2x target.")
@click.option("--epsilons", type=str, default="1e-6,1e-9,1e-12", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Optional CSV output path.")
def rate_study_cmd(problem_path, builtin, beta, anchor_beta, epsilons, out_path,
                   max_iters):
    """Measured vs predicted convergence rate at one beta, across accuracies
    (each run stops on the L1 distance between successive iterates)."""
    problem = _load(problem_path, builtin)
    if isinstance(problem, IbProblem):
        raise click.UsageError("rate-study applies to rate-distortion problems")
    try:
        eps_list = [float(t) for t in epsilons.split(",") if t.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --epsilons: {exc}") from exc
    points = rate_study(problem, beta, eps_list, anchor_beta=anchor_beta,
                        max_iterations=max_iters)
    click.echo(json.dumps([p.to_json_dict() for p in points], indent=1))
    if out_path:
        click.echo(f"wrote {write_rate_study_csv(points, out_path)}")


@cli.command("tangent")
@problem_options
@solver_options
@sweep_options
def tangent_cmd(problem_path, builtin, epsilon, norm, max_iters, beta_min,
                beta_max, beta_steps, log_grid, support_tol, merge_tol, out_dir):
    """Reverse-sweep a bottleneck problem into --out/ib, then sweep the tangent
    rate-distortion problem across its k-th detected transition into
    --out/tangent_k, as `study fig2` does with its frozen settings."""
    problem = _load(problem_path, builtin)
    if not isinstance(problem, IbProblem):
        raise click.UsageError("tangent needs a bottleneck problem")
    solver = SolverConfig(epsilon=epsilon, norm=norm, max_iterations=max_iters)
    grid = _beta_grid(beta_min, beta_max, beta_steps, log_grid, descending=True)
    config = _sweep_config(grid, "reverse", solver, merge_tol, support_tol)
    study = studies.analyze(problem, config)
    _echo_run(study.transitions, studies.write_reports(study, out_dir))
    if not study.transitions.intervals:
        click.echo("no transitions detected; wrote the bottleneck sweep alone",
                   err=True)


@cli.command("study")
@click.argument("name", type=click.Choice(sorted(studies.STUDIES)))
@click.option("--out", "out_dir", type=click.Path(), default="rdspectral-out",
              show_default=True)
def study_cmd(name, out_dir):
    """Run one of the paper's frozen figure studies and write its reports:
    fig1's into --out, fig2's bottleneck sweep into ib/ and the tangent sweep
    across its k-th transition into tangent_k/."""
    study = studies.run(name)
    _echo_run(study.transitions, studies.write_reports(study, out_dir))


@cli.command("builtin")
@click.option("--name", type=str, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def builtin_cmd(name, out_path):
    """List builtin problems, or emit one as JSON (to stdout or --out)."""
    if name is None:
        for key in sorted(BUILTIN_PROBLEMS):
            kind = "bottleneck" if isinstance(builtin_problem(key), IbProblem) \
                else "rate-distortion"
            click.echo(f"{key}\t{kind}")
        return
    problem = builtin_problem(name)
    if out_path:
        dump_problem(problem, out_path)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(json.dumps(problem.to_json_dict()))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    return 0


if __name__ == "__main__":
    main()
