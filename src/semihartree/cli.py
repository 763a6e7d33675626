"""Command-line interface.

Subcommands: sweep (rate study over epsilon), compare (single-epsilon
reference vs approximation with a per-time error trace), lemma-check
(two-solver profile cross-check), corrections (expansion-residual sweeps),
validate (initial-profile assumption report).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .amplitude import validate_initial_amplitude
from .config import (MODES, ExperimentConfig, _number, check_time_steps,
                     config_from_mapping, decode_config_text)
from .errors import ConfigError, NumericalError
from .hartree import compare, physical_level
from .sweep import (
    SweepError,
    emit_gnuplot_script,
    emit_report,
    lemma_check,
    render_report,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

JOBS_HELP = ("accepted and ignored: every mode steps each wave as batches in one "
             "process (default 1; N < 1 is an error)")
PLOT_HELP = "also write a gnuplot script (requires --out)"


def _load_config(args) -> ExperimentConfig:
    # overrides are merged into the raw document before validation so that
    # mode-dependent defaults (the corrections eps list) resolve correctly
    if getattr(args, "config", None):
        with open(args.config, "rb") as fh:
            raw = decode_config_text(fh.read())
    else:
        raw = {}
    if getattr(args, "mode", None):
        raw["mode"] = args.mode
    if getattr(args, "K", None):
        raw["mode"] = f"corrections-{args.K}"
    if getattr(args, "eps", None):
        try:
            raw["eps_list"] = [float(e) for e in args.eps.split(",")]
        except ValueError:
            raise ConfigError(f"could not parse --eps list {args.eps!r}")
    return config_from_mapping(raw)


def _solver_config(args) -> ExperimentConfig:
    """The config of a command that runs solvers; ConfigError, before any
    solver runs, when the packet-frame grid cannot hold the initial profile."""
    cfg = _load_config(args)
    report = validate_initial_amplitude(cfg.initial_profile())
    failed = [f"{name} {value:.3g}" for name, value in (
        ("norm defect", report.norm_defect), ("first moment", report.first_moment),
        ("spectral first moment", report.fourier_first_moment))
        if not abs(value) <= report.tolerance]
    if failed:
        raise ConfigError(
            f"grid.mu_n/grid.mu_halfwidth ({cfg.mu_n} cells on +-{cfg.mu_halfwidth:g}) "
            f"cannot hold the initial profile: {', '.join(failed)} above {report.tolerance:g}")
    return cfg


def _cmd_sweep(args) -> int:
    if args.plot_script and not args.out:
        raise ConfigError("--plot-script requires --out")
    cfg = _solver_config(args)
    try:
        report, failure = run_sweep(cfg, jobs=args.jobs), None
    except SweepError as exc:  # the rows settled before it still print and write
        report, failure = exc.report, exc
    if not args.quiet:
        for row in report.rows:
            print(f"eps={row.epsilon:<8g} error={row.error:.6e} dt={row.dt_used:g}",
                  file=sys.stderr)
    if args.out:
        emit_report(report, args.out)
        if args.plot_script and failure is None:
            emit_gnuplot_script(args.out, args.plot_script)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not args.quiet:
        print(render_report(report), end="")
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.trace < 0:
        raise ConfigError(f"--trace must be at least 0, got {args.trace}")
    cfg = _solver_config(args)
    eps = cfg.eps_list[0]
    level = physical_level(cfg, 1, args.trace)
    [(errors, dt, n, _)] = compare([(eps, level)], cfg)
    rows = [f"{repr(float(amp.t))},{repr(e)}" for amp, e in zip(level.states, errors)]
    footer = (f"# epsilon={repr(float(eps))} final_error={repr(errors[-1])} "
              f"n={n} dt={repr(dt)}")
    text = "\n".join(["t,error", *rows, footer]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if not args.quiet:
        print(text, end="")
    return EXIT_OK


def _cmd_lemma_check(args) -> int:
    kappa, T, dt, tol = (_number(getattr(args, key), f"--{key}")
                         for key in ("kappa", "T", "dt", "tol"))
    if not (dt > 0 and T > 0 and tol >= 0):
        raise ConfigError(f"lemma-check needs --dt > 0, --T > 0 and --tol >= 0, "
                          f"got --dt {dt!r} --T {T!r} --tol {tol!r}")
    check_time_steps(T, dt, "lemma-check --T/--dt")
    check = lemma_check(kappa=kappa, T=T, dt=dt)
    worst = max(check.deviations)
    if not args.quiet:
        for t, d in zip(check.probe_times, check.deviations):
            print(f"t={t:g} deviation={d:.3e}")
        if check.measured_order != check.measured_order:  # nan
            print("measured dt-order: n/a (agreement at roundoff floor)")
        else:
            print(f"measured dt-order: {check.measured_order:.2f}")
    if worst > tol:
        print(f"error: worst deviation {worst:.3e} exceeds {tol:g}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if not check.order_ok:
        print(f"error: measured order {check.measured_order:.2f} below 1.8",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    report = validate_initial_amplitude(cfg.initial_profile())
    if not args.quiet:
        print(f"norm defect:            {report.norm_defect:.3e}")
        print(f"first moment:           {report.first_moment:.3e}")
        print(f"spectral first moment:  {report.fourier_first_moment:.3e}")
        for m, v in enumerate(report.abs_moments):
            print(f"abs moment m={m}:         {v:.6f}")
        print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semihartree",
        description="Semiclassical coherent-state propagation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode_flag=True):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
        if mode_flag:
            p.add_argument("--mode", choices=MODES, help="override the configured mode")
        p.add_argument("--eps", help="override eps_list, comma separated")

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with rate fit")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_sweep.add_argument("--plot-script", dest="plot_script", help=PLOT_HELP)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="single-epsilon reference vs approximation")
    common(p_cmp, mode_flag=False)
    p_cmp.add_argument("--trace", type=int, default=21,
                       help="number of per-time error samples (default 21)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_lem = sub.add_parser("lemma-check", help="two-solver profile cross-check")
    p_lem.add_argument("--kappa", type=float, default=-1.0)
    p_lem.add_argument("--T", type=float, default=1.0)
    p_lem.add_argument("--dt", type=float, default=2.5e-4)
    p_lem.add_argument("--tol", type=float, default=1e-6)
    p_lem.add_argument("--quiet", action="store_true")
    p_lem.set_defaults(func=_cmd_lemma_check)

    p_cor = sub.add_parser("corrections", help="expansion-residual sweep")
    common(p_cor, mode_flag=False)
    p_cor.add_argument("--K", type=int, choices=(1, 2), default=1,
                       help="expansion order (default 1)")
    p_cor.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_cor.add_argument("--plot-script", dest="plot_script", help=PLOT_HELP)
    p_cor.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="initial-profile assumption report")
    common(p_val, mode_flag=False)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
