"""Command-line front end.

Subcommands: quasimode, sweep-h, region, high-energy, validate.  Output
is data-only: quasimode writes JSON (default) or CSV, validate writes
JSON and the others write CSV; any other ``--format`` is a usage error.
CSV carries a header row and 17 significant digits.

argparse alone knows each option's type, default, choices and whether it
is required.  Each ``key = value`` line of a ``--config`` file becomes the
argument ``--key=value``, placed after the subcommand and ahead of the
flags, so one parse checks both and a flag wins over the file.  Errors,
argparse's and a file's that cannot be read or written included, print
one machine-parsable line ``error:<code>: <message>`` and exit with 2
(usage), 3 (infeasible anchor) or 4 (numerical accuracy).

The module imports no numpy: ``main`` loads the numeric modules only once
argv has parsed, so a usage error or ``--help`` costs an interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import quasimodes

from .errors import QuasimodeError, UsageError

#: the numeric names the commands use; ``main`` imports them in this order
#: (which fixes the process's peak memory) once argv has parsed
_NUMERIC = ("jwkb", "oracle", "scaling", "load_potential", "make_anchor")


def __getattr__(name):
    """Resolve a numeric name on first access through the lazy package (as
    ``cli.jwkb`` or a wrapper's ``getattr(cli, "load_potential")`` does)
    and keep it bound."""
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(quasimodes, name)
    return value


FMT = "%.17g"

DEFAULT_H_LIST = "0.2,0.1,0.05,0.025,0.0125"
DEFAULT_SIGMA_LIST = "1e1,1e2,1e3,1e4,1e5"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors raise UsageError instead of printing usage.

    ``add_subparsers`` builds its subparsers with the same class."""

    def error(self, message):
        raise UsageError(message)


def _finite(text):
    """The float ``text`` names; nan and +-inf are refused."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return val


def _float_list(text):
    vals = [_finite(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty numeric list")
    return vals


def _open(path):
    """The output stream: stdout for no path or ``-``, else the file."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write(path, text):
    with _open(path) as fh:
        fh.write(text)


def _row(values):
    return ",".join(FMT % v for v in values) + "\n"


def _csv(header, rows):
    return ",".join(header) + "\n" + "".join(map(_row, rows))


def _with_config(argv):
    """``argv`` with the ``--config`` file's lines as ``--key=value`` after
    the subcommand; keys may spell ``-`` as ``_``."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    extra = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            key = key.strip().replace("_", "-")
            if not eq:
                raise UsageError(f"config line without '=': {line!r}")
            if key == "config":
                raise UsageError("a config file cannot name another")
            extra.append(f"--{key}={val.strip()}")
    return argv[:1] + extra + argv[1:]


def _given(args, *names):
    """The set of ``names`` whose options were given."""
    return {name for name in names if getattr(args, name) is not None}


def _certify(args):
    """(P, anchor, certificate) from --potential and the anchor options:
    --a and --eta, or --z-re and --z-im with --a as an optional guess."""
    given = _given(args, "a", "eta", "z_re", "z_im")
    if given not in ({"a", "eta"}, {"z_re", "z_im"}, {"a", "z_re", "z_im"}):
        raise UsageError("give either --a and --eta, or --z-re and --z-im "
                         "with --a as an optional guess")
    P = load_potential(args.potential)
    if args.eta is not None:
        anchor = make_anchor(P, args.h, args.a, args.eta)
    else:
        z = complex(args.z_re, args.z_im)
        anchor = scaling.solve_anchor(P, args.h, z, a_init=args.a)
    cert = jwkb.certify(
        P, anchor, args.order, args.trunc, allow_large_h=args.allow_large_h
    )
    return P, anchor, cert


def cmd_quasimode(args):
    d = _certify(args)[2].to_dict()
    if args.format == "csv":
        keys = [k for k in d if k not in ("warnings", "tail_magnitudes")]
        _write(args.out, _csv(keys, [[d[k] for k in keys]]))
    else:
        _write(args.out, json.dumps(d, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sweep_h(args):
    P = load_potential(args.potential)
    certs, slope, fit_res = jwkb.sweep_h(
        P, args.a, args.eta, args.order, args.h_list, args.trunc
    )
    rows = [(c.h, c.r, c.lower_bound) for c in certs]
    _write(args.out, _csv(("h", "r", "lower_bound"), rows))
    print(f"slope {FMT % slope} fit_residual {FMT % fit_res}", file=sys.stderr)
    return 0


def cmd_region(args):
    P = load_potential(args.potential)
    a_grid = _grid(args.a_min, args.a_max, args.a_count, "a")
    eta_grid = _grid(args.eta_min, args.eta_max, args.eta_count, "eta")
    pts = scaling.region_U(P, args.h, a_grid, eta_grid)
    rows = [(a, eta, z.real, z.imag) for z, a, eta in pts]
    _write(args.out, _csv(("a", "eta", "z_re", "z_im"), rows))
    return 0


def _grid(lo, hi, count, name):
    if count < 1:
        raise UsageError(f"--{name}-count must be >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def cmd_high_energy(args):
    """Writes each row once certified, so a failure keeps the rows before it."""
    HE = scaling.HighEnergyOperator(load_potential(args.potential))
    z = complex(args.z_re, args.z_im)
    with _open(args.out) as fh:
        fh.write(_csv(("sigma", "h", "lower_bound_on_resolvent_at_sigma_z"), []))
        for sigma in args.sigma_list:
            cert = scaling.highenergy_lower_bound(HE, z, sigma, args.order, args.trunc)
            h = cert.diagnostics["semiclassical_h"]
            fh.write(_row((sigma, h, cert.lower_bound)))
            fh.flush()  # a run stopped by a signal keeps its rows too
    return 0


def cmd_validate(args):
    grid = _given(args, "x_lo", "x_hi", "grid_n")
    if len(grid) not in (0, 3):
        raise UsageError("give all of --x-lo, --x-hi and --grid-n, or none")
    P, anchor, cert = _certify(args)
    if grid:
        disc = oracle.Discretization(args.x_lo, args.x_hi, args.grid_n)
    else:
        disc = oracle.default_discretization(P, anchor, cert.delta)
    report = oracle.validate(cert, P, disc)
    _write(args.out, report.to_json() + "\n")
    return 0


def _options(sp, names, type=_finite, required=False):
    for name in names:
        sp.add_argument(f"--{name}", type=type, required=required)


def build_parser():
    ap = _Parser(
        prog="quasimodes",
        description="JWKB quasimodes and resolvent-norm lower bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, formats, help, certifies=True):
        """Subcommand with the options every subcommand takes, and --order
        and --trunc when it ``certifies``; no option may be abbreviated, so
        a config key is a whole option name."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument("--potential", required=True, help="potential family file")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=formats, default=formats[0])
        if certifies:
            sp.add_argument("--order", type=int, default=0, help="JWKB order n")
            sp.add_argument("--trunc", type=int, help="series degree K")
        sp.add_argument("--config", help="file of key = value lines, as --key=value")
        sp.set_defaults(func=func)
        return sp

    def anchor_command(name, func, formats, help):
        sp = command(name, func, formats, help)
        _options(sp, ("a", "eta", "z-re", "z-im"))
        _options(sp, ("h",), required=True)
        sp.add_argument(
            "--allow-large-h",
            action="store_true",
            help="proceed when h > delta^2, recording a warning",
        )
        return sp

    anchor_command("quasimode", cmd_quasimode, ("json", "csv"),
                   "one certificate at an anchor")

    sp = command("sweep-h", cmd_sweep_h, ("csv",), "residual ratios over an h grid")
    _options(sp, ("a", "eta"), required=True)
    sp.add_argument("--h-list", type=_float_list, default=DEFAULT_H_LIST)

    sp = command("region", cmd_region, ("csv",), "sample the instability region U",
                 certifies=False)
    _options(sp, ("h", "a-min", "a-max", "eta-min", "eta-max"), required=True)
    _options(sp, ("a-count", "eta-count"), type=int, required=True)

    sp = command("high-energy", cmd_high_energy, ("csv",),
                 "sigma sweep of Theorem-2 bounds")
    _options(sp, ("z-re", "z-im"), required=True)
    sp.add_argument("--sigma-list", type=_float_list, default=DEFAULT_SIGMA_LIST)

    sp = anchor_command("validate", cmd_validate, ("json",),
                        "certificate vs discrete oracle")
    _options(sp, ("x-lo", "x-hi"))
    _options(sp, ("grid-n",), type=int)

    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        for name in _NUMERIC:
            if name not in globals():  # a name bound already stays bound
                __getattr__(name)
        return args.func(args)
    except BrokenPipeError:  # an OSError, but not the user's to fix
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # a file it cannot read or write
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2
    except QuasimodeError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
