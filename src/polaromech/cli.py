"""Command-line interface.

Subcommands: steady (operating point report), entangle (one E_N number),
sweep (1-D/2-D grids), figure (canned grids), validate (quick invariant
checks). Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 unstable operating point on a single-point request.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import ConfigError, build_params, params_record, parse_config
from .dynamics import drift_diffusion, is_stable_routh_hurwitz, spectral_abscissa
from .figures import FIGURES, reproduce_figure
from .gaussian import (_negativity_of_nu, min_symplectic_pt,
                       min_symplectic_pt_spectral, reduce_bipartite,
                       validate_cm)
from .lyapunov import LyapunovError, lyapunov_residual
from .params import ParameterError
from .pipeline import _covariance, intracavity_cm, operating_point
from .steadystate import UnstableOperatingPointError
from .sweep import AXIS_NAMES, TARGETS, Axis, SweepSpec, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_UNSTABLE = 4

_PAIR_NAMES = {"te-mech": ("te", "mech"), "tm-mech": ("tm", "mech"),
               "te-tm": ("te", "tm")}


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH",
                     help="key = value parameter file")
    sub.add_argument("--defaults", choices=["paper"],
                     help="fill unset keys from the baseline parameter set")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    _add_output(sub)


def _add_output(sub, out_help="write results to PATH instead of stdout"):
    sub.add_argument("--out", metavar="PATH", help=out_help)
    sub.add_argument("--format", choices=["csv", "structured"], default="csv",
                     help="output format (default csv)")


def _load_params(args):
    """SystemParams from --config/--defaults/--set; ConfigError on bad input."""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    else:
        text = ""
        if not args.defaults:
            raise ConfigError("no --config given; pass --defaults paper to "
                              "run the baseline parameter set")
    params = parse_config(text, defaults=args.defaults)
    if args.set:
        record = params_record(params)
        for item in args.set:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError("--set expects KEY=VALUE, got %r" % item)
            if key not in record:
                raise ConfigError("unknown configuration key", key=key)
            try:
                record[key] = float(value)
            except ValueError:
                raise ConfigError("malformed number %r" % value,
                                  key=key) from None
        params = build_params(record)
    return params


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_record(args, record):
    """One flat record as a two-line CSV or a JSON object."""
    if args.format == "structured":
        _emit(args, json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        keys = list(record)
        line2 = ",".join("%.17g" % record[k] if isinstance(record[k], float)
                         else str(record[k]) for k in keys)
        _emit(args, ",".join(keys) + "\n" + line2 + "\n")


def _cmd_steady(args):
    params = _load_params(args)
    dp, ss = operating_point(params)
    w = dp.mech_freq
    a = drift_diffusion(ss, dp).drift
    record = {
        "omega_l_rad_s": dp.drive_freq,
        "kappa_rad_s": dp.cavity_decay,
        "gamma_m_rad_s": dp.mech_damping,
        "thermal_occupancy": dp.thermal_occupancy,
        "q_s": ss.q_s,
        "delta_eff_over_omega_m": ss.detuning / w,
        "alpha_te_re": ss.alpha_te.real, "alpha_te_im": ss.alpha_te.imag,
        "alpha_tm_re": ss.alpha_tm.real, "alpha_tm_im": ss.alpha_tm.imag,
        "coupling_mag_te_over_omega_m": abs(ss.coupling_te) / w,
        "coupling_mag_tm_over_omega_m": abs(ss.coupling_tm) / w,
        "root_count": ss.root_count,
        "spectral_abscissa_over_omega_m": spectral_abscissa(a),
    }
    _emit_record(args, record)
    return EXIT_OK


def _cmd_entangle(args):
    params = _load_params(args)
    dp, ss = operating_point(params)
    v = _covariance(dp, ss, args.where, args.epsilon, args.omega_over_omega_m)
    nu = min_symplectic_pt(reduce_bipartite(v, _PAIR_NAMES[args.pair]))
    record = {
        "pair": args.pair,
        "where": args.where,
        "log_negativity": _negativity_of_nu(nu),
        "nu_min": nu,
        "q_s": ss.q_s,
        "delta_eff_over_omega_m": ss.detuning / dp.mech_freq,
    }
    if args.where == "output":
        record["epsilon"] = args.epsilon
        record["omega_over_omega_m"] = args.omega_over_omega_m
    _emit_record(args, record)
    return EXIT_OK


def _parse_axis(text, default_count):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("axis must be NAME:MIN:MAX[:COUNT], got %r" % text)
    name = parts[0]
    try:
        low, high = float(parts[1]), float(parts[2])
        count = int(parts[3]) if len(parts) == 4 else default_count
    except ValueError:
        raise ConfigError("malformed axis %r" % text) from None
    try:
        return Axis(name=name, low=low, high=high, count=count)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _cmd_sweep(args):
    params = _load_params(args)
    default_count = 101 if args.axis2 else 201
    axis1 = _parse_axis(args.axis1, default_count)
    axis2 = _parse_axis(args.axis2, default_count) if args.axis2 else None
    try:
        spec = SweepSpec(axis1=axis1, axis2=axis2, target=args.target)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    table = run_sweep(spec, base=params)
    if args.out:
        table.write(args.out, fmt=args.format)
    else:
        _emit(args, table.to_csv() if args.format == "csv"
              else json.dumps(table.to_structured(), indent=2, sort_keys=True)
              + "\n")
    return EXIT_OK


def _cmd_figure(args):
    try:
        table = reproduce_figure(args.id)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    out = args.out
    if out is None:
        out = "%s.%s" % (args.id, "json" if args.format == "structured"
                         else "csv")
    table.write(out, fmt=args.format)
    sys.stdout.write("%s: %d rows -> %s\n" % (args.id, len(table.rows), out))
    return EXIT_OK


def _cmd_validate(args):
    # the covariance entangle returns, rotated from the 4x4 bright-mode
    # solve, is checked in the full 6x6 model
    params = _load_params(args)
    v, dp, ss = intracavity_cm(params)
    dd = drift_diffusion(ss, dp)
    checks = []

    abscissa = spectral_abscissa(dd.drift)
    rh = is_stable_routh_hurwitz(dd.drift)
    checks.append(("stability routes agree",
                   rh is not None and rh == (abscissa < -1e-10)))
    res = lyapunov_residual(dd.drift, dd.diffusion, np.asarray(v))
    checks.append(("lyapunov residual < 1e-9", res < 1e-9))
    report = validate_cm(v)
    checks.append(("covariance physical", report.physical))
    for pair in _PAIR_NAMES.values():
        v_bp = reduce_bipartite(v, pair)
        closed = min_symplectic_pt(v_bp)
        spectral = min_symplectic_pt_spectral(v_bp)
        checks.append(("nu routes agree (%s-%s)" % pair,
                       abs(closed - spectral) < 1e-9))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        sys.stdout.write("%-32s %s\n" % (name, "ok" if ok else "FAILED"))
    if failed:
        sys.stderr.write("validate: %d check(s) failed\n" % len(failed))
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polaromech",
        description="Polarization-controlled optomechanical entanglement: "
                    "steady states, covariance matrices, entanglement "
                    "measures, sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("steady", help="solve and report the operating point")
    _add_common(sub)
    sub.set_defaults(func=_cmd_steady)

    sub = subs.add_parser("entangle", help="log negativity of one mode pair")
    _add_common(sub)
    sub.add_argument("--pair", choices=sorted(_PAIR_NAMES), default="te-mech")
    sub.add_argument("--where", choices=["intracavity", "output"],
                     default="intracavity")
    sub.add_argument("--epsilon", type=float, default=10.0,
                     help="filter inverse bandwidth omega_m * tau (output only)")
    sub.add_argument("--omega-over-omega-m", type=float, default=-1.0,
                     help="detection frequency in units of omega_m (output only)")
    sub.set_defaults(func=_cmd_entangle)

    sub = subs.add_parser("sweep", help="sweep a target over 1 or 2 axes")
    _add_common(sub)
    sub.add_argument("--axis1", required=True, metavar="NAME:MIN:MAX[:COUNT]",
                     help="axis name is a config key, epsilon, or "
                          "omega_over_omega_m")
    sub.add_argument("--axis2", metavar="NAME:MIN:MAX[:COUNT]")
    sub.add_argument("--target", required=True, choices=TARGETS)
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("figure", help="run one canned figure grid")
    _add_output(sub, "write the table to PATH (default: <id>.csv, or <id>.json "
                     "with --format structured, in the working directory)")
    sub.add_argument("id", help="one of: %s" % ", ".join(sorted(FIGURES)))
    sub.set_defaults(func=_cmd_figure)

    sub = subs.add_parser("validate", help="run quick self-consistency checks")
    _add_common(sub)
    sub.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, FileNotFoundError) as err:
        sys.stderr.write("configuration error: %s\n" % err)
        return EXIT_CONFIG
    except UnstableOperatingPointError as err:
        sys.stderr.write("%s\n" % err)
        return EXIT_UNSTABLE
    except (LyapunovError, ArithmeticError, np.linalg.LinAlgError) as err:
        sys.stderr.write("numeric error: %s\n" % err)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
