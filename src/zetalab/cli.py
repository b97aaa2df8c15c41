"""Unified command-line front end.

Subcommands mirror the library modules:

    eval            series values (JSON) and evaluation grids (CSV)
    kron solve      simultaneous approximation search
    annulus radii / annulus realize
    ideals factor / ideals cassels
    twist sign-flip / twist greedy
    zeros count / zeros pipeline

Exit codes: 0 success, 2 invalid configuration (bad flags, bad config
document), 3 structured stage failure (JSON diagnostics on stderr).

Output is deterministic for a fixed config and seed: floats render with 17
significant digits, keys in fixed order.  The global flags (--precision,
--seed, --out, --format, --config) go before or after the subcommand.  A
JSON config document (--config) supplies defaults for the chosen command's
flags: flags given on the command line win, unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .annulus import AnnulusSpec, radii, realize_phases
from .errors import ConfigInvalid, ZetalabError
from .kronecker import KroneckerProblem, SearchBudget, solve
from .quadfield import factor_shift, ideal_denominator, private_primes
from .series import Alpha, PeriodicFunction, decompose, lfunction
from .twist import BlockSchedule, TwistedSeries, find_sigma0, run_schedule, \
    truncation_index
from .zerofinder import PipelineBudget, QuadratureSpec, Rectangle, \
    argument_count, find_zero_pipeline

__all__ = ["main", "render_json"]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Canonical JSON: floats at 17 significant digits, insertion order."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return render_json([obj.real, obj.imag])
    return json.dumps(str(obj))


def _parse_f(ns) -> PeriodicFunction:
    values = tuple(float(v) for v in str(ns.f).split(","))
    if ns.q is not None and int(ns.q) != len(values):
        raise ConfigInvalid("q disagrees with the number of f values",
                            q=int(ns.q), count=len(values))
    return PeriodicFunction(values)


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    return complex(float(parts[0]), float(parts[1]))


def _parse_budget(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        k, _, v = piece.partition("=")
        if not v:
            raise ConfigInvalid(f"budget entry {piece!r} is not key=value")
        out[k.strip()] = float(v)
    return out


def _emit(args, payload, jsonl_rows=None):
    if args.format == "jsonl" and jsonl_rows is not None:
        text = "\n".join(render_json(r) for r in jsonl_rows) + "\n"
    elif args.format == "csv" and isinstance(payload, dict) \
            and "csv" in payload:
        text = payload["csv"]
    else:
        text = render_json(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    f = _parse_f(args)
    alpha = Alpha.parse(args.alpha)
    dps = args.precision
    if args.grid:
        srange, trange = args.grid.split(":")
        smin, smax, ns = srange.split(",")
        tmin, tmax, nt = trange.split(",")
        ns, nt = int(ns), int(nt)
        lines = ["sigma,t,re,im"]
        for i in range(ns):
            sigma = float(smin) + (float(smax) - float(smin)) * i / max(ns - 1, 1)
            for j in range(nt):
                t = float(tmin) + (float(tmax) - float(tmin)) * j / max(nt - 1, 1)
                v = complex(lfunction(complex(sigma, t), f, alpha,
                                      tol=args.tol, dps=dps))
                lines.append(f"{_fmt_float(sigma)},{_fmt_float(t)},"
                             f"{_fmt_float(v.real)},{_fmt_float(v.imag)}")
        _emit(args, {"csv": "\n".join(lines) + "\n"})
        return 0
    s = _parse_s(args.s)
    fn = decompose if args.route == "decompose" else lfunction
    v = complex(fn(s, f, alpha, tol=args.tol, dps=dps))
    _emit(args, {"re": v.real, "im": v.imag})
    return 0


def _cmd_kron(args) -> int:
    freqs = tuple(float(x) for x in args.freqs.split(","))
    targets = tuple(float(x) for x in args.targets.split(","))
    problem = KroneckerProblem(freqs, targets, delta=args.delta,
                               t_min=args.tmin)
    budget = SearchBudget(max_t=args.max_t, max_iterations=int(args.max_iter))
    sol = solve(problem, budget)
    _emit(args, {"t": sol.t, "x": list(sol.integer_parts),
                 "max_error": sol.max_error})
    return 0


def _cmd_annulus(args) -> int:
    r = [float(x) for x in args.r.split(",")]
    if args.action == "radii":
        outer, inner = radii(r)
        _emit(args, {"R": outer, "T": inner})
        return 0
    z = _parse_s(args.z)
    spec = AnnulusSpec(tuple(r))
    angles = realize_phases(spec, z, tol=args.tol)
    import cmath
    achieved = sum(ri * cmath.exp(1j * th)
                   for ri, th in zip(spec.radii, angles))
    _emit(args, {"angles": angles,
                 "achieved": [achieved.real, achieved.imag],
                 "err": abs(achieved - z)})
    return 0


def _factor_record(n: int, alpha: Alpha) -> dict:
    fact = factor_shift(n, alpha)
    return {"n": n, "norm": str(fact.norm),
            "factors": [[p.label(), e] for p, e in fact.factors]}


def _cmd_ideals(args) -> int:
    alpha = Alpha.parse(args.alpha)
    if args.action == "factor":
        rec = _factor_record(args.n, alpha)
        denom = ideal_denominator(alpha)
        rec["denominator"] = [[p.label(), e] for p, e in sorted(
            denom.items(), key=lambda t: t[0].p)]
        _emit(args, rec)
        return 0
    block = private_primes(args.N, args.M, alpha)
    rows = []
    for n in range(args.N + 1, args.N + args.M + 1):
        rec = _factor_record(n, alpha)
        rec["private"] = n in block.private
        rec["witness"] = block.private[n].label() if n in block.private else None
        rows.append(rec)
    summary = {"type": "summary", "N": args.N, "M": args.M,
               "density": block.density}
    _emit(args, {"blocks": rows + [summary]}, jsonl_rows=rows + [summary])
    return 0


def _cmd_twist(args) -> int:
    alpha = Alpha.parse(args.alpha)
    f = _parse_f(args)
    if args.action == "sign-flip":
        m = truncation_index(f, alpha, args.delta)
        series = TwistedSeries(f, alpha, flip_index=m)
        sigma0, lo, hi = find_sigma0(series, args.delta, with_bracket=True)
        resid = abs(series.evaluate(complex(sigma0, 0)))
        _emit(args, {"flip_index": m, "sigma0": sigma0,
                     "bracket": [lo, hi], "residual": resid})
        return 0
    schedule = BlockSchedule(n1=args.n1, num_blocks=args.blocks,
                             scale_num=args.scale_num,
                             scale_den=args.scale_den,
                             sigma=args.sigma, delta=args.delta,
                             mode=args.mode,
                             synthetic_density=args.density)
    report = run_schedule(f, alpha, schedule, chi_seed=args.seed,
                          hp_check=not args.no_hp)
    rows = [b.to_json() for b in report.blocks]
    rows.append({"type": "summary", "sigma": report.sigma, "ok": report.ok,
                 "halted_at": report.halted_at})
    _emit(args, report.to_json(), jsonl_rows=rows)
    return 0 if report.ok else 3


def _cmd_zeros(args) -> int:
    f = _parse_f(args)
    alpha = Alpha.parse(args.alpha)
    if args.action == "count":
        smin, smax, tmin, tmax = (float(x) for x in args.rect.split(","))
        rect = Rectangle(smin, smax, tmin, tmax)
        count = argument_count(
            lambda s: lfunction(s, f, alpha, tol=args.tol), rect,
            QuadratureSpec(initial_points=args.samples))
        _emit(args, {"count": count, "rect": [smin, smax, tmin, tmax]})
        return 0
    b = _parse_budget(args.budget)
    budget = PipelineBudget(
        kron=SearchBudget(max_t=b.get("maxt", 2e5),
                          max_iterations=int(b.get("maxiter", 2e7))),
        n_cut_max=int(b.get("ncut", 6)),
        samples=int(b.get("samples", 360)),
        t_min=b.get("tmin", 0.0))
    result = find_zero_pipeline(f, alpha, args.delta, budget)
    records = [result.record.to_json()] if result.record else []
    _emit(args, result.to_json(), jsonl_rows=records)
    if not result.success:
        sys.stderr.write(render_json(
            {"failed_stage": result.failed_stage,
             "failure": result.failure}) + "\n")
        return 3
    return 0


# Flags every command takes, before or after the subcommand.
_GLOBAL_FLAGS = {
    "--precision": dict(type=int, default=None,
                        help="software precision in decimal digits"),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None, help="write output to this file"),
    "--format": dict(choices=["json", "csv", "jsonl"], default="json"),
    "--config": dict(default=None,
                     help="JSON document supplying defaults for the command"),
}


def _build_parser() -> tuple[argparse.ArgumentParser, list]:
    """The top-level parser and the parsers of the leaf commands."""
    top = argparse.ArgumentParser(prog="zetalab")
    for flag, kw in _GLOBAL_FLAGS.items():
        top.add_argument(flag, **kw)
    sub = top.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(subs, name, run, **kw):
        p = subs.add_parser(name, **kw)
        p.set_defaults(run=run)
        leaves.append(p)
        return p

    def series_flags(p):
        p.add_argument("--f", default="1", help="comma list of period values")
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--alpha", required=True,
                       help="rat:p,q | quad:a,b,d | dec:<literal>")
        p.add_argument("--tol", type=float, default=1e-12)

    p = leaf(sub, "eval", _cmd_eval, help="series values and identity checks")
    series_flags(p)
    p.add_argument("--s", default="2,0", help="sigma,t")
    p.add_argument("--route", choices=["lfunction", "decompose"],
                   default="lfunction")
    p.add_argument("--grid", default=None,
                   help="smin,smax,ns:tmin,tmax,nt (CSV output)")

    p = sub.add_parser("kron")
    ksub = p.add_subparsers(dest="action", required=True)
    pk = leaf(ksub, "solve", _cmd_kron)
    pk.add_argument("--freqs", required=True,
                    help="comma list; write --freqs=-0.1,0.2 when the first "
                         "is negative")
    pk.add_argument("--targets", required=True)
    pk.add_argument("--delta", type=float, required=True)
    pk.add_argument("--tmin", type=float, default=0.0)
    pk.add_argument("--max-t", type=float, default=1e6)
    pk.add_argument("--max-iter", type=float, default=5e7)

    p = sub.add_parser("annulus")
    asub = p.add_subparsers(dest="action", required=True)
    pa = leaf(asub, "radii", _cmd_annulus)
    pa.add_argument("--r", required=True)
    pa = leaf(asub, "realize", _cmd_annulus)
    pa.add_argument("--r", required=True)
    pa.add_argument("--z", required=True, help="re,im")
    pa.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("ideals")
    isub = p.add_subparsers(dest="action", required=True)
    pi = leaf(isub, "factor", _cmd_ideals)
    pi.add_argument("--alpha", required=True)
    pi.add_argument("--n", type=int, required=True)
    pi = leaf(isub, "cassels", _cmd_ideals)
    pi.add_argument("--alpha", required=True)
    pi.add_argument("--N", type=int, required=True)
    pi.add_argument("--M", type=int, required=True)

    p = sub.add_parser("twist")
    tsub = p.add_subparsers(dest="action", required=True)
    pt = leaf(tsub, "sign-flip", _cmd_twist)
    series_flags(pt)
    pt.add_argument("--delta", type=float, required=True)
    pt = leaf(tsub, "greedy", _cmd_twist)
    series_flags(pt)
    pt.add_argument("--delta", type=float, default=1.0)
    pt.add_argument("--blocks", type=int, default=50)
    pt.add_argument("--n1", type=int, default=1000)
    pt.add_argument("--scale-num", type=int, default=1)
    pt.add_argument("--scale-den", type=int, default=100)
    pt.add_argument("--sigma", type=float, default=None)
    pt.add_argument("--mode", choices=["authentic", "synthetic"],
                    default="authentic")
    pt.add_argument("--density", type=float, default=0.55)
    pt.add_argument("--no-hp", action="store_true",
                    help="skip the high-precision ledger recheck")

    p = sub.add_parser("zeros")
    zsub = p.add_subparsers(dest="action", required=True)
    pz = leaf(zsub, "count", _cmd_zeros)
    series_flags(pz)
    pz.add_argument("--rect", required=True, help="smin,smax,tmin,tmax")
    pz.add_argument("--samples", type=int, default=256)
    pz = leaf(zsub, "pipeline", _cmd_zeros)
    series_flags(pz)
    pz.add_argument("--delta", type=float, required=True)
    pz.add_argument("--budget", default=None,
                    help="comma list: maxt=..,maxiter=..,ncut=..,samples=..,tmin=..")
    return top, leaves


def _parse(top, argv: list[str]) -> argparse.Namespace:
    args, rest = top.parse_known_args(argv)
    if rest:
        # what the command did not take may only be global flags, given
        # after the subcommand; only flags given are stored
        after = argparse.ArgumentParser(prog=top.prog, add_help=False)
        for flag, kw in _GLOBAL_FLAGS.items():
            after.add_argument(flag, **{**kw, "default": argparse.SUPPRESS})
        after.parse_args(rest, namespace=args)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    top, leaves = _build_parser()
    # the document is read before the full parse, so that it can supply
    # flags the command requires; every spelling of --config, abbreviations
    # included, starts with "--c"
    path = None
    if any(a.startswith("--c") for a in argv):
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", default=None)
        path = pre.parse_known_args(argv)[0].config
    if not path:
        return _parse(top, argv)
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigInvalid("config document must be a JSON object")
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if "--" + attr in _GLOBAL_FLAGS:
            top.set_defaults(**{attr: value})
            continue
        # the document sets defaults, so flags on the command line win, and
        # a flag it supplies is no longer required
        for p in leaves:
            for action in p._actions:
                if action.dest == attr:
                    action.default, action.required = value, False
    args = _parse(top, argv)
    known = set(vars(args)) - {"command", "action", "run"}
    for key in doc:
        if key.replace("-", "_") not in known:
            raise ConfigInvalid(f"unknown config key {key!r}", key=key)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except (ConfigInvalid, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    try:
        return args.run(args)
    except ConfigInvalid as e:
        sys.stderr.write(render_json(e.to_json()) + "\n")
        return 2
    except ValueError as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return 2
    except ZetalabError as e:
        sys.stderr.write(render_json(e.to_json()) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
