"""Command-line front end.

Subcommands: quasimode, sweep-h, region, high-energy, validate.  Output
is data-only: quasimode writes JSON (default) or CSV, validate writes
JSON and the others write CSV; any other ``--format`` is a usage error.
CSV carries a header row and 17 significant digits.  Errors print a
single machine-parsable line ``error:<code>: <message>`` and exit with
2 (usage), 3 (infeasible anchor) or 4 (numerical accuracy).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jwkb, oracle, scaling
from .errors import QuasimodeError, UsageError
from .potential import load_potential, make_anchor

FMT = "%.17g"

DEFAULT_H_LIST = "0.2,0.1,0.05,0.025,0.0125"
DEFAULT_SIGMA_LIST = "1e1,1e2,1e3,1e4,1e5"


def _float_list(text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad numeric list: {text!r}") from None
    if not vals:
        raise UsageError("empty numeric list")
    return vals


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(FMT % v for v in row))
    return "\n".join(lines) + "\n"


def _load_config(path):
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


_CONFIG_TYPES = {
    "a": float, "eta": float, "h": float, "z_re": float, "z_im": float,
    "order": int, "trunc": int, "x_lo": float, "x_hi": float, "grid_n": int,
    "a_min": float, "a_max": float, "a_count": int,
    "eta_min": float, "eta_max": float, "eta_count": int,
}


def _apply_config(args):
    """Fill unset options from a key = value config file; flags win."""
    if getattr(args, "config", None) is not None:
        cfg = _load_config(args.config)
        for key, val in cfg.items():
            if not hasattr(args, key) or key in ("command", "func", "formats"):
                raise UsageError(f"unknown config key {key!r}")
            if getattr(args, key) is None:
                conv = _CONFIG_TYPES.get(key, str)
                try:
                    setattr(args, key, conv(val))
                except ValueError:
                    raise UsageError(
                        f"bad value for config key {key!r}: {val!r}"
                    ) from None
    # resolve remaining defaults after the config pass
    if getattr(args, "order", None) is None:
        args.order = 0
    if args.format is None:
        args.format = args.formats[0]
    elif args.format not in args.formats:
        raise UsageError(f"--format {args.format} is not written by "
                         f"{args.command}; use {' or '.join(args.formats)}")
    if getattr(args, "h_list", -1) is None:
        args.h_list = DEFAULT_H_LIST
    if getattr(args, "sigma_list", -1) is None:
        args.sigma_list = DEFAULT_SIGMA_LIST
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _anchor_from_args(P, args):
    _require(args, "h")
    if args.a is not None and args.eta is not None:
        return make_anchor(P, args.h, args.a, args.eta)
    if args.z_re is not None and args.z_im is not None:
        z = complex(args.z_re, args.z_im)
        return scaling.solve_anchor(P, args.h, z, a_init=args.a)
    raise UsageError("give either --a and --eta, or --z-re and --z-im")


def cmd_quasimode(args):
    P = load_potential(args.potential)
    anchor = _anchor_from_args(P, args)
    cert = jwkb.certify(
        P, anchor, args.order, args.trunc, allow_large_h=args.allow_large_h
    )
    _emit_cert(args, cert)
    return 0


def _emit_cert(args, cert):
    if args.format == "csv":
        d = cert.to_dict()
        keys = [k for k in d if k not in ("warnings", "tail_magnitudes")]
        _write(args.out, _csv(keys, [[d[k] for k in keys]]))
    else:
        _write(args.out, json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n")


def cmd_sweep_h(args):
    P = load_potential(args.potential)
    _require(args, "a", "eta")
    h_list = _float_list(args.h_list)
    if len(h_list) < 3:
        raise UsageError("sweep needs at least 3 h values")
    certs, slope, fit_res = jwkb.sweep_h(
        P, args.a, args.eta, args.order, h_list, args.trunc
    )
    rows = [(c.h, c.r, c.lower_bound) for c in certs]
    _write(args.out, _csv(("h", "r", "lower_bound"), rows))
    print(f"slope {FMT % slope} fit_residual {FMT % fit_res}", file=sys.stderr)
    return 0


def cmd_region(args):
    P = load_potential(args.potential)
    _require(args, "h")
    a_grid = _grid(args.a_min, args.a_max, args.a_count, "a")
    eta_grid = _grid(args.eta_min, args.eta_max, args.eta_count, "eta")
    pts = scaling.region_U(P, args.h, a_grid, eta_grid)
    rows = [(a, eta, z.real, z.imag) for z, a, eta in pts]
    _write(args.out, _csv(("a", "eta", "z_re", "z_im"), rows))
    return 0


def _grid(lo, hi, count, name):
    if lo is None or hi is None or count is None:
        raise UsageError(f"missing --{name}-min/--{name}-max/--{name}-count")
    if count < 1:
        raise UsageError(f"--{name}-count must be >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def cmd_high_energy(args):
    P = load_potential(args.potential)
    HE = scaling.HighEnergyOperator(P)
    _require(args, "z_re", "z_im")
    z = complex(args.z_re, args.z_im)
    if not scaling.sector_check(z, HE.c_n):
        import cmath

        raise UsageError(
            f"z outside sector: arg z = {cmath.phase(z):.6g}, "
            f"arg c_n = {cmath.phase(HE.c_n):.6g}"
        )
    sigmas = _float_list(args.sigma_list)
    rows = []
    for sigma in sigmas:
        cert = scaling.highenergy_lower_bound(HE, z, sigma, args.order, args.trunc)
        rows.append(
            (sigma, cert.diagnostics["semiclassical_h"], cert.lower_bound)
        )
    _write(
        args.out,
        _csv(("sigma", "h", "lower_bound_on_resolvent_at_sigma_z"), rows),
    )
    return 0


def cmd_validate(args):
    P = load_potential(args.potential)
    anchor = _anchor_from_args(P, args)
    cert = jwkb.certify(
        P, anchor, args.order, args.trunc, allow_large_h=args.allow_large_h
    )
    if args.x_lo is not None and args.x_hi is not None and args.grid_n is not None:
        disc = oracle.Discretization(args.x_lo, args.x_hi, int(args.grid_n))
    else:
        disc = oracle.default_discretization(P, anchor, cert.delta)
    report = oracle.validate(cert, P, disc)
    _write(args.out, report.to_json() + "\n")
    return 0


def _add_common(sp, formats):
    """Options of every subcommand; it writes ``formats``, the first by default."""
    sp.add_argument("--potential", required=True, help="potential family file")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", default=None, help=" or ".join(formats))
    sp.add_argument("--order", type=int, default=None, help="JWKB order n (default 0)")
    sp.add_argument("--trunc", type=int, default=None, help="series degree K")
    sp.add_argument("--config", default=None, help="key = value defaults file")
    sp.set_defaults(formats=formats)


def _add_anchor_opts(sp):
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--z-re", type=float, default=None, dest="z_re")
    sp.add_argument("--z-im", type=float, default=None, dest="z_im")
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument(
        "--allow-large-h",
        action="store_true",
        help="proceed when h > delta^2, recording a warning",
    )


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quasimodes",
        description="JWKB quasimodes and resolvent-norm lower bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("quasimode", help="one certificate at an anchor")
    _add_common(sp, ("json", "csv"))
    _add_anchor_opts(sp)
    sp.set_defaults(func=cmd_quasimode)

    sp = sub.add_parser("sweep-h", help="residual ratios over an h grid")
    _add_common(sp, ("csv",))
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--h-list", default=None, dest="h_list")
    sp.set_defaults(func=cmd_sweep_h)

    sp = sub.add_parser("region", help="sample the instability region U")
    _add_common(sp, ("csv",))
    sp.add_argument("--h", type=float, default=None)
    for name in ("a", "eta"):
        sp.add_argument(f"--{name}-min", type=float, default=None)
        sp.add_argument(f"--{name}-max", type=float, default=None)
        sp.add_argument(f"--{name}-count", type=int, default=None)
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("high-energy", help="sigma sweep of Theorem-2 bounds")
    _add_common(sp, ("csv",))
    sp.add_argument("--z-re", type=float, default=None, dest="z_re")
    sp.add_argument("--z-im", type=float, default=None, dest="z_im")
    sp.add_argument("--sigma-list", default=None, dest="sigma_list")
    sp.set_defaults(func=cmd_high_energy)

    sp = sub.add_parser("validate", help="certificate vs discrete oracle")
    _add_common(sp, ("json",))
    _add_anchor_opts(sp)
    sp.add_argument("--x-lo", type=float, default=None, dest="x_lo")
    sp.add_argument("--x-hi", type=float, default=None, dest="x_hi")
    sp.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    sp.set_defaults(func=cmd_validate)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        args = _apply_config(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2
    except QuasimodeError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_status
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
