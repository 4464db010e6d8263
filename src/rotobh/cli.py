"""Command-line front end.

Every subcommand computes its full table first and only then writes, so
a failed run never leaves a partial file.  Exit codes: 0 success,
2 configuration error, 3 domain error, 4 convergence failure.

Rotation input comes either from a physical frame (--mass-amu,
--radius-um, --sites, plus --omega where a single angle is needed) or
directly as --gamma/--theta; supplying both is a configuration error.
A flat key=value config file (--config, given once and spelled in full)
can preload any flag of the chosen subcommand; explicit flags win.

_SUBCOMMANDS is the one table of subcommands: each name's help, the
function that adds its flags, and its handler.  An invocation that opens
with a subcommand name builds only that subcommand's parser, the one that
holds its flags; any other (--help, --version, no arguments, an unknown
command) builds the top-level one, which only lists the subcommands.
Each main() call builds its parser anew, and none is kept between calls.
Grids, rows and fit samples are capped at errors.MAX_COUNT.
"""

from __future__ import annotations

import argparse
import functools
import math
import shutil
import sys

from . import __version__, io, oracle, sensing
from .core import effective_hopping, peierls_phase, ring_gamma
from .errors import (EXIT_OK, ConfigError, ConvergenceError, DomainError,
                     RotobhError, check_count)
from .landau import (CONVENTIONS, LOBE_TIP_TOL, VARIANT_FOR_CONVENTION,
                     boundary_hopping, kappa, lobe_index)
from .oracle import (MeanFieldProblem, boundary_problems, check_boundary,
                     converged_psis)
from .phase_diagram import PSI_METHODS, SweepSpec, sweep
from .sensing import (delta_exact, delta_on, dtheta_steps,
                      invert_rotation_change, resolution_grid)

TOLERANCES = {
    "bisection_dtheta": sensing.BISECTION_TOL,
    "oracle_boundary_dD": oracle.BOUNDARY_TOL,
    "oracle_golden_dpsi": oracle.GOLDEN_TOL,
    "lobe_tip_dmu": LOBE_TIP_TOL,
}


def parse_grid(text: str):
    """'start:stop:step' (inclusive), 'x,y,z', or a single value.

    Every value must be finite: NaN and +-inf are configuration errors in
    each form.  A grid has at most MAX_COUNT points, checked before a
    range is expanded.
    """
    parts = text.strip().split(":")
    ranged = len(parts) > 1
    if ranged and len(parts) != 3:
        raise ConfigError("grid %r is not start:stop:step" % (text,))
    try:
        values = tuple(map(float, parts if ranged else parts[0].split(",")))
    except ValueError:
        raise ConfigError("cannot parse grid %r" % (text,))
    if not all(map(math.isfinite, values)):
        raise ConfigError("grid %r has a non-finite value" % (text,))
    if not ranged:
        check_count("points in grid %r" % (text,), len(values))
        return values
    start, stop, step = values
    if step <= 0.0 or stop < start:
        raise ConfigError("bad grid range %r" % (text,))
    span = (stop - start) / step  # inf once the count overflows
    check_count("points in grid %r" % (text,), span + 1.0)
    count = int(math.floor(span + 1.0 + 1e-9))
    return tuple(start + i * step for i in range(count))


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fp:
            for lineno, raw in enumerate(fp, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("%s:%d: expected key=value" % (path, lineno))
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return entries


def _add_output_flags(sub):
    sub.add_argument("--output", default="-",
                     help="output path, or - for stdout (default)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None,
                     help="key=value file preloading this subcommand's flags")


def _worker_count(text):
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, like any count under 1
    if value < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r"
                                         % (text,))
    return value


def _add_workers_flag(sub):
    sub.add_argument("--workers", type=_worker_count, default=1,
                     help="accepted for compatibility (>= 1); cells are "
                          "evaluated in order in one thread")


def _add_frame_flags(sub, with_omega=True):
    sub.add_argument("--mass-amu", type=float, default=None)
    sub.add_argument("--radius-um", type=float, default=None)
    sub.add_argument("--sites", type=int, default=None)
    if with_omega:
        sub.add_argument("--omega", type=float, default=None,
                         help="rotation angular velocity [rad/s]")
    sub.add_argument("--gamma", type=float, default=None,
                     help="rotation-to-phase scale factor [s]")


def _resolve_gamma(args, required=False):
    frame_given = [v for v in (args.mass_amu, args.radius_um, args.sites)
                   if v is not None]
    if frame_given and args.gamma is not None:
        raise ConfigError("give either the frame flags or --gamma, not both")
    if frame_given:
        if len(frame_given) != 3:
            raise ConfigError("--mass-amu, --radius-um and --sites go together")
        return ring_gamma(args.mass_amu, args.radius_um, args.sites)
    if args.gamma is not None:
        if not (math.isfinite(args.gamma) and args.gamma > 0.0):
            raise ConfigError("--gamma must be finite and > 0")
        return args.gamma
    if required:
        raise ConfigError("this subcommand needs --gamma or the frame flags")
    return None


def _resolve_theta(args):
    if args.theta is not None:
        if getattr(args, "omega", None) is not None:
            raise ConfigError("give either --theta or --omega, not both")
        return args.theta
    if getattr(args, "omega", None) is not None:
        return peierls_phase(_resolve_gamma(args, required=True), args.omega)
    raise ConfigError("this subcommand needs --theta, or --omega with a frame")


def _phase_diagram_flags(p):
    p.add_argument("--mu-grid", required=True)
    p.add_argument("--d-grid", required=True)
    p.add_argument("--convention", choices=CONVENTIONS, default="paper")
    p.add_argument("--psi-method", choices=PSI_METHODS, default="landau")
    p.add_argument("--n-max", type=int, default=None)
    _add_workers_flag(p)
    _add_output_flags(p)


def _cmd_phase_diagram(args):
    spec = SweepSpec(kind="diagram", convention=args.convention,
                     psi_method=args.psi_method,
                     mu_values=parse_grid(args.mu_grid),
                     D_values=parse_grid(args.d_grid),
                     n_max=args.n_max, workers=args.workers)
    grid = sweep(spec)
    meta = {"convention": args.convention, "psi_method": args.psi_method}
    return grid.columns, grid.rows, meta


def _order_parameter_flags(p):
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--t-grid", required=True)
    p.add_argument("--theta-grid", default=None)
    p.add_argument("--omega-grid", default=None)
    p.add_argument("--convention", choices=CONVENTIONS, default="paper")
    p.add_argument("--psi-method", choices=PSI_METHODS, default="landau")
    p.add_argument("--n-max", type=int, default=None)
    _add_workers_flag(p)
    _add_frame_flags(p, with_omega=False)
    _add_output_flags(p)


def _cmd_order_parameter(args):
    if (args.theta_grid is None) == (args.omega_grid is None):
        raise ConfigError("give exactly one of --theta-grid or --omega-grid")
    gamma = _resolve_gamma(args, required=args.omega_grid is not None)
    if args.omega_grid is not None:
        thetas = tuple(peierls_phase(gamma, w)
                       for w in parse_grid(args.omega_grid))
    elif gamma is not None:
        raise ConfigError("frame flags are unused with --theta-grid")
    else:
        thetas = parse_grid(args.theta_grid)
    spec = SweepSpec(kind="sensing-loop", convention=args.convention,
                     psi_method=args.psi_method, mu_values=(args.mu,),
                     t_values=parse_grid(args.t_grid), theta_values=thetas,
                     n_max=args.n_max, workers=args.workers)
    grid = sweep(spec)
    meta = {"convention": args.convention, "psi_method": args.psi_method,
            "mu_over_U": args.mu, "gamma": gamma}
    return grid.columns, grid.rows, meta


def _costheta_curve_flags(p):
    p.add_argument("--t-grid", required=True)
    p.add_argument("--lobes", default="1,2,3")
    p.add_argument("--mu-by-lobe", default=None,
                   help="comma list of mu values, one per lobe "
                        "(default: each lobe tip)")
    p.add_argument("--convention", choices=CONVENTIONS, default="paper")
    _add_workers_flag(p)
    _add_output_flags(p)


def _cmd_costheta_curve(args):
    lobes = parse_grid(args.lobes)
    lobe_mu = () if args.mu_by_lobe is None else parse_grid(args.mu_by_lobe)
    spec = SweepSpec(kind="costheta-curve", convention=args.convention,
                     t_values=parse_grid(args.t_grid), lobes=lobes,
                     lobe_mu=lobe_mu, workers=args.workers)
    grid = sweep(spec)
    meta = {"convention": args.convention,
            "mu_by_lobe": "lobe tips" if not lobe_mu else list(lobe_mu)}
    return grid.columns, grid.rows, meta


def _sensitivity_flags(p):
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--dtheta-points", type=int, default=100)
    _add_output_flags(p)


def _cmd_sensitivity(args):
    thetas = parse_grid(args.theta_grid)
    if args.dtheta_points < 2:
        raise ConfigError("--dtheta-points must be >= 2")
    check_count("sensitivity rows (thetas x --dtheta-points)",
                len(thetas) * args.dtheta_points)
    rows = []
    for theta in thetas:
        steps = dtheta_steps(theta, args.dtheta_points)
        deltas = delta_on(theta, steps).tolist()
        rows.extend((theta, d, v) for d, v in zip(steps.tolist(), deltas))
    meta = {"dtheta_points": args.dtheta_points}
    return ("theta", "dtheta", "delta"), tuple(rows), meta


def _resolution_flags(p):
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--mode", choices=sensing.MODES, default="exact")
    p.add_argument("--grid-points", type=int, default=sensing.FIT_GRID_POINTS)
    p.add_argument("--literal-exponent", action="store_true",
                   help="use the a^-2 prefactor variant in fit mode")
    _add_workers_flag(p)
    _add_frame_flags(p, with_omega=False)
    _add_output_flags(p)


def _cmd_resolution(args):
    thetas = parse_grid(args.theta_grid)
    gamma = _resolve_gamma(args)
    rows = []
    for prof in resolution_grid(thetas, mode=args.mode, gamma=gamma,
                                grid_points=args.grid_points,
                                literal_exponent=args.literal_exponent):
        rows.append((
            prof.theta, math.nan if prof.omega is None else prof.omega,
            prof.a_fit, prof.delta_max, prof.epsilon_theta,
            math.nan if prof.epsilon_omega is None else prof.epsilon_omega,
            prof.mode))
    meta = {"mode": args.mode, "gamma": gamma,
            "grid_points": args.grid_points,
            "literal_exponent": args.literal_exponent,
            "fit_protocol": sensing.FIT_PROTOCOL, "tolerances": TOLERANCES}
    if args.format == "json":  # CSV drops the meta
        meta["theta_crossover_exact"] = sensing.theta_crossover("exact")
        meta["theta_crossover_fit"] = sensing.theta_crossover(
            "fit", args.grid_points)
    return ("theta", "omega", "a_fit", "delta_max", "epsilon_theta",
            "epsilon_omega", "mode"), tuple(rows), meta


def _fit_delta_flags(p):
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--grid-points", type=int, default=sensing.FIT_GRID_POINTS)
    _add_output_flags(p)


def _cmd_fit_delta(args):
    thetas = parse_grid(args.theta_grid)
    rows = []
    for prof in resolution_grid(thetas, "fit", grid_points=args.grid_points):
        theta, a = prof.theta, prof.a_fit
        dev = sensing.fit_deviation(theta, a, 401)
        rows.append((theta, a, prof.fit_rms, prof.delta_max, dev))
    meta = {"grid_points": args.grid_points,
            "fit_protocol": sensing.FIT_PROTOCOL}
    return ("theta", "a_fit", "rms", "delta_max_fit", "max_abs_dev"), \
        tuple(rows), meta


def _invert_flags(p):
    p.add_argument("--delta-measured", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--convention", choices=CONVENTIONS, default="paper")
    _add_frame_flags(p, with_omega=True)
    _add_output_flags(p)


def _cmd_invert(args):
    theta = _resolve_theta(args)
    gamma = _resolve_gamma(args, required=True)
    variant = VARIANT_FOR_CONVENTION[args.convention]
    result = invert_rotation_change(args.delta_measured, args.mu,
                                    lobe_index(args.mu), theta, gamma,
                                    variant=variant)
    meta = {"convention": args.convention, "gamma": gamma,
            "tolerances": TOLERANCES}
    rows = ((args.delta_measured, theta, gamma, result.delta_theta,
             result.delta_omega, result.ambiguous),)
    return ("delta_measured", "theta", "gamma", "delta_theta", "delta_omega",
            "ambiguous"), rows, meta


def _oracle_check_flags(p):
    p.add_argument("--mu", required=True, help="mu/U value or comma list")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--theta", type=float, default=0.8)
    p.add_argument("--dthetas", default="0.002,0.005")
    _add_output_flags(p)


def _cmd_oracle_check(args):
    mus = parse_grid(args.mu)
    dthetas = parse_grid(args.dthetas)
    check_count("oracle-check rows (mu x dthetas)", len(mus) * len(dthetas))
    theta = args.theta
    # before any minimization: delta_exact rejects theta outside
    # (0, pi/2) and dtheta outside [0, theta], and psi*/delta needs delta > 0
    deltas = [delta_exact(theta, dtheta) for dtheta in dthetas]
    for dtheta, delta in zip(dthetas, deltas):
        if not delta > 0.0:
            raise DomainError("dtheta = %g gives delta = 0, so psi*/delta "
                              "cannot recover kappa" % dtheta)
    # every mu's two boundary guards and its cells go to one converged_psis
    # call; the first mu that fails before any solve ends the list, and its
    # error is raised after those of the mus before it, so errors come in
    # mu order
    plans, problems, failure = [], [], None
    for mu in mus:
        try:
            lobe = lobe_index(mu)
            D_c = boundary_hopping(mu, lobe, "paper")
            t_edge = boundary_hopping(mu, lobe, "variational") / math.cos(theta)
            D_cv, guards = boundary_problems(mu, args.n_max)
            cells = [MeanFieldProblem(
                mu, effective_hopping(t_edge, theta - dtheta), args.n_max)
                for dtheta in dthetas]
        except RotobhError as exc:
            failure = exc
            break
        plans.append((mu, lobe, D_c, D_cv))
        problems += guards + cells
    psis = iter(converged_psis(problems))
    rows = []
    for mu, lobe, D_c, D_cv in plans:
        check_boundary(mu, D_cv, next(psis), next(psis))
        kap_var = kappa(mu, lobe, "variational")
        for dtheta, delta in zip(dthetas, deltas):
            psi = next(psis)
            if isinstance(psi, ConvergenceError):
                raise psi
            kap_rec = psi / delta
            rows.append((mu, lobe, dtheta, D_c, D_cv, D_cv / D_c, psi,
                         kap_var, kap_rec, kap_rec / kap_var - 1.0))
    if failure is not None:
        raise failure
    meta = {"theta": theta, "n_max": args.n_max, "tolerances": TOLERANCES}
    return ("mu_over_U", "lobe_n", "dtheta", "D_c_paper", "D_cv_oracle",
            "ratio", "psi_star", "kappa_variational", "kappa_recovered",
            "rel_err"), tuple(rows), meta


# The one table of subcommands: name -> (help, flags, handler).
_SUBCOMMANDS = {
    "phase-diagram": ("phase labels and psi over a (mu, D) grid",
                      _phase_diagram_flags, _cmd_phase_diagram),
    "order-parameter": ("psi surface along the sensing loop at fixed mu",
                        _order_parameter_flags, _cmd_order_parameter),
    "costheta-curve": ("critical cos(theta) versus t/U per lobe",
                       _costheta_curve_flags, _cmd_costheta_curve),
    "sensitivity": ("delta surface over (theta, dtheta)",
                    _sensitivity_flags, _cmd_sensitivity),
    "resolution": ("half-maximum resolution per operating angle",
                   _resolution_flags, _cmd_resolution),
    "fit-delta": ("surrogate-fit parameter a(theta) and quality",
                  _fit_delta_flags, _cmd_fit_delta),
    "invert": ("recover dOmega from a measured order-parameter change",
               _invert_flags, _cmd_invert),
    "oracle-check": ("convention-ratio and kappa-recovery report",
                     _oracle_check_flags, _cmd_oracle_check),
}


def build_parser(name=None):
    """The top-level parser, or with a subcommand name that subcommand's.

    The subcommand's parser, prog "rotobh NAME", holds its flags and sets
    ``command`` itself.  The top-level one serves every other argv, which
    ends in help, the version or a usage error: its subparsers carry only
    their help line.
    Every call builds a new parser: none is kept between calls.  argparse
    builds a HelpFormatter for every flag, and each one asks for the
    terminal width unless it is given; so the width is read once per
    build and handed to each, as the width HelpFormatter would compute.
    """
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    if name is not None:
        _, add_flags, _ = _SUBCOMMANDS[name]
        parser = argparse.ArgumentParser(prog="rotobh " + name,
                                         formatter_class=formatter)
        add_flags(parser)
        parser.set_defaults(command=name)
        return parser
    parser = argparse.ArgumentParser(
        prog="rotobh",
        description="Rotating-ring Bose-Hubbard phase diagrams and "
                    "rotation-velocity sensing at the Mott transition edge.",
        formatter_class=formatter)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for sub, (help_text, _, _) in _SUBCOMMANDS.items():
        subs.add_parser(sub, help=help_text, formatter_class=formatter)
    return parser


def _config_path(argv):
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _expand_config(parser, flags):
    """Splice config-file entries into a subcommand's flags, ahead of the
    explicit ones.

    parser is the subcommand's own parser (build_parser(name)).  Runs
    before parsing so flags the parser marks as required can be satisfied
    from the file; explicit flags still win because argparse keeps the
    last occurrence.
    """
    path = _config_path(flags)
    if path is None:
        return flags
    expanded = []
    for key, value in load_config(path).items():
        opt = "--" + key.strip().replace("_", "-")
        if opt == "--config":
            raise ConfigError("config files cannot nest --config")
        action = parser._option_string_actions.get(opt)
        if action is None:
            raise ConfigError("unknown config key %r for %s"
                              % (key, parser.get_default("command")))
        if action.nargs == 0:
            if value.lower() in ("1", "true", "yes"):
                expanded.append(opt)
            elif value.lower() not in ("0", "false", "no"):
                raise ConfigError("boolean config key %r needs true/false"
                                  % (key,))
        else:  # one token, so a value opening with '-' is not a flag
            expanded.append("%s=%s" % (opt, value))
    return expanded + flags


def _emit(args, columns, rows, meta):
    meta = dict(meta)
    meta["version"] = __version__
    if args.format == "csv":
        text = io.csv_text(args.command, columns, rows)
    else:
        text = io.json_text(args.command, columns, rows, meta)
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    except OSError as exc:
        raise ConfigError("cannot write output %s: %s" % (args.output, exc))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # argparse picks a subparser only by its exact name, so only an argv
        # that opens with one reaches a subcommand's flags
        if argv and argv[0] in _SUBCOMMANDS:
            parser = build_parser(argv[0])
            argv = _expand_config(parser, argv[1:])
        else:
            parser = build_parser()
        try:
            args = parser.parse_args(argv)
            if parser.get_default("command") is None:
                # a flagless top-level subparser, reached past a "--" with no
                # flags left: the subcommand's own parser says what it needs
                args = build_parser(args.command).parse_args([])
        except SystemExit as exc:  # argparse reports its own diagnostics
            return int(exc.code or 0)
        # the splice holds no --config, so this is the path it read: one
        # that argparse took from an abbreviation or a repeat is refused
        if args.config != _config_path(argv):
            raise ConfigError("--config %s was not read: give --config once, "
                              "spelled in full" % args.config)
        _, _, run = _SUBCOMMANDS[args.command]
        columns, rows, meta = run(args)
        _emit(args, columns, rows, meta)
    except RotobhError as exc:
        print("rotobh: error: %s" % exc, file=sys.stderr)
        return exc.exit_status
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
