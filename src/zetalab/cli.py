"""Unified command-line front end.

The commands mirror the library modules; `zetalab -h` lists them.

Exit codes: 0 success, 2 invalid command line or input, 3 structured stage
failure (JSON diagnostics on stderr).

Output is deterministic for a fixed command line: floats render with 17
significant digits, keys in fixed order.  The global flags (--out,
--format) go before or after the command words; every other flag belongs
to the commands that read it and goes after the command words.

One table, _COMMANDS, maps the command words to a handler and its flags.
The top parser reads the global flags given before the command words and
leaves the rest of the line untouched; then the chosen command's parser,
with its own flags and the global flags, reads the rest.  Parsers are built
on the first call that needs them, not at import, and then kept: the top
parser once per process, a command's parser once per process and command.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

from .annulus import AnnulusSpec, radii, realize_phases
from .errors import ConfigInvalid, PrecisionUnreachable, ZetalabError
from .kronecker import KroneckerProblem, SearchBudget, solve
from .quadfield import factor_shift, ideal_denominator, private_primes
from .series import Alpha, PeriodicFunction, lfunction, series_tail_mp
from .twist import BlockSchedule, TwistedSeries, find_sigma0, run_schedule, \
    truncation_index
from .zerofinder import PipelineBudget, Rectangle, argument_count, \
    find_zero_pipeline

__all__ = ["main", "render_json"]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


_LITERALS = {True: "true", False: "false", None: "null"}
_encode_str = json.encoder.encode_basestring_ascii


def render_json(obj) -> str:
    """Canonical JSON: floats at 17 significant digits, insertion order."""
    parts: list[str] = []
    _render(obj, parts.append)
    return "".join(parts)


def _render(obj, put) -> None:
    """Put the pieces of obj's JSON text, in one pass over its values."""
    if isinstance(obj, float):
        put(_fmt_float(obj))
    elif isinstance(obj, dict):
        sep = "{"
        for k, v in obj.items():
            put(sep + _encode_str(str(k)) + ": ")
            _render(v, put)
            sep = ", "
        put("}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for v in obj:
            put(sep)
            _render(v, put)
            sep = ", "
        put("]" if obj else "[]")
    elif obj is None or isinstance(obj, bool):
        put(_LITERALS[obj])
    elif isinstance(obj, int):
        put(str(obj))
    elif isinstance(obj, complex):
        _render([obj.real, obj.imag], put)
    else:
        put(_encode_str(str(obj)))


def _finite(text: str) -> float:
    """The value of a number flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"invalid input: {text!r} is not a finite number")
    return value


def _positive(text: str) -> float:
    """The value of a --tol flag: a finite float above 0."""
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"invalid input: {text!r} is not above 0")
    return value


def _parse_f(ns) -> PeriodicFunction:
    return PeriodicFunction(tuple(float(v) for v in ns.f.split(",")))


def _parse_s(text: str) -> complex:
    parts = [float(x) for x in text.split(",")]
    if len(parts) > 2 or not all(map(math.isfinite, parts)):
        raise ConfigInvalid("a complex number is re or re,im, both finite",
                            value=text)
    return complex(*parts)


def _parse_grid(text: str) -> tuple[list[float], list[float]]:
    """(sigmas, ts) of an eval --grid spec smin,smax,ns:tmin,tmax,nt: ns
    equally spaced sigmas from smin to smax, and nt ts likewise."""
    try:
        (smin, smax, ns), (tmin, tmax, nt) = (
            part.split(",") for part in text.split(":"))
        ends = [float(x) for x in (smin, smax, tmin, tmax)]
        ns, nt = int(ns), int(nt)
    except ValueError:
        ends, ns, nt = [math.nan], 0, 0
    if not (all(map(math.isfinite, ends)) and ns >= 1 and nt >= 1):
        raise ConfigInvalid("a grid is smin,smax,ns:tmin,tmax,nt with "
                            "finite ends and counts >= 1", value=text)
    smin, smax, tmin, tmax = ends
    return ([smin + (smax - smin) * i / max(ns - 1, 1) for i in range(ns)],
            [tmin + (tmax - tmin) * j / max(nt - 1, 1) for j in range(nt)])


def _emit(args, payload, jsonl_rows=None):
    if args.format == "json":
        text = render_json(payload) + "\n"
    elif args.format == "csv" and "csv" in payload:
        text = payload["csv"]
    elif args.format == "jsonl" and jsonl_rows is not None:
        text = "\n".join(render_json(r) for r in jsonl_rows) + "\n"
    else:
        # refused before anything is written
        raise ConfigInvalid(f"the command cannot write {args.format}",
                            format=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    f = _parse_f(args)
    alpha = Alpha.parse(args.alpha)

    def value(s: complex) -> complex:
        if args.precision is None:
            return lfunction(s, f, alpha, tol=args.tol)
        # mpmath at ten guard digits past the precision; the value carries
        # the precision less five digits of its magnitude
        v, magnitude = series_tail_mp(s, f, alpha, 0, args.precision + 10)
        floor = 10.0 ** (5 - args.precision) * float(magnitude)
        if args.tol < floor:
            raise PrecisionUnreachable("tolerance below reachable floor",
                                       tol=args.tol, floor=floor)
        return complex(v)

    if args.grid is not None:
        sigmas, ts = _parse_grid(args.grid)
        lines = ["sigma,t,re,im"]
        for sigma in sigmas:
            for t in ts:
                v = value(complex(sigma, t))
                lines.append(f"{_fmt_float(sigma)},{_fmt_float(t)},"
                             f"{_fmt_float(v.real)},{_fmt_float(v.imag)}")
        _emit(args, {"csv": "\n".join(lines) + "\n"})
        return 0
    v = value(_parse_s(args.s))
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


def _cmd_radii(args) -> int:
    outer, inner = radii([float(x) for x in args.r.split(",")])
    _emit(args, {"R": outer, "T": inner})
    return 0


def _cmd_realize(args) -> int:
    z = _parse_s(args.z)
    spec = AnnulusSpec(tuple(float(x) for x in args.r.split(",")))
    angles = realize_phases(spec, z, tol=args.tol)
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


def _cmd_factor(args) -> int:
    alpha = Alpha.parse(args.alpha)
    rec = _factor_record(args.n, alpha)
    denom = ideal_denominator(alpha)
    rec["denominator"] = [[p.label(), e] for p, e in sorted(
        denom.items(), key=lambda t: t[0].p)]
    _emit(args, rec)
    return 0


def _cmd_cassels(args) -> int:
    alpha = Alpha.parse(args.alpha)
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


def _cmd_sign_flip(args) -> int:
    alpha = Alpha.parse(args.alpha)
    f = _parse_f(args)
    m = truncation_index(f, alpha, args.delta)
    series = TwistedSeries(f, alpha, flip_index=m)
    sigma0, lo, hi = find_sigma0(series, args.delta)
    resid = abs(series.evaluate(complex(sigma0, 0)))
    _emit(args, {"flip_index": m, "sigma0": sigma0,
                 "bracket": [lo, hi], "residual": resid})
    return 0


def _cmd_greedy(args) -> int:
    alpha = Alpha.parse(args.alpha)
    f = _parse_f(args)
    schedule = BlockSchedule(args.n1, args.blocks, args.scale_den, args.sigma)
    report = run_schedule(f, alpha, schedule, hp_check=not args.no_hp)
    rows = [b.to_json() for b in report.blocks]
    rows.append({"type": "summary", "sigma": report.sigma, "ok": report.ok,
                 "halted_at": report.halted_at})
    _emit(args, report.to_json(), jsonl_rows=rows)
    return 0 if report.ok else 3


def _cmd_count(args) -> int:
    f = _parse_f(args)
    alpha = Alpha.parse(args.alpha)
    smin, smax, tmin, tmax = (float(x) for x in args.rect.split(","))
    rect = Rectangle(smin, smax, tmin, tmax)
    count = argument_count(
        lambda s: lfunction(s, f, alpha, tol=args.tol), rect, args.samples)
    _emit(args, {"count": count, "rect": [smin, smax, tmin, tmax]})
    return 0


def _cmd_pipeline(args) -> int:
    f = _parse_f(args)
    alpha = Alpha.parse(args.alpha)
    budget = PipelineBudget(max_t=args.max_t,
                            max_iterations=int(args.max_iter),
                            t_min=args.tmin, n_cut_max=args.ncut,
                            samples=args.samples)
    result = find_zero_pipeline(f, alpha, args.delta, budget)
    records = [result.record.to_json()] if result.record else []
    _emit(args, result.to_json(), jsonl_rows=records)
    if not result.success:
        sys.stderr.write(render_json(
            {"failed_stage": result.failed_stage,
             "failure": result.failure}) + "\n")
        return 3
    return 0


# Flags every command takes, before or after the command words.
_GLOBAL_FLAGS = (
    ("--out", dict(help="write output to this file")),
    ("--format", dict(choices=["json", "csv", "jsonl"], default="json")),
)

# Flags of the commands that take a series L(s, f, alpha).
_SERIES = (
    ("--f", dict(default="1", help="comma list of period values; the "
                 "period q is their count")),
    ("--alpha", dict(required=True,
                     help="rat:p,q | quad:a,b,d | dec:<literal>")),
)
_TOL = ("--tol", dict(type=_positive, default=1e-12))

# command words -> (handler, description, flags)
_COMMANDS = {
    ("eval",): (_cmd_eval, "series values and identity checks", _SERIES + (
        _TOL,
        ("--precision", dict(type=int, help="evaluate by mpmath at this "
                             "many decimal digits")),
        ("--s", dict(default="2,0", help="sigma,t")),
        ("--grid", dict(help="smin,smax,ns:tmin,tmax,nt (CSV output)")),
    )),
    ("kron", "solve"): (_cmd_kron, "simultaneous approximation search", (
        ("--freqs", dict(required=True, help="comma list; write "
                         "--freqs=-0.1,0.2 when the first is negative")),
        ("--targets", dict(required=True)),
        ("--delta", dict(type=_finite, required=True)),
        ("--tmin", dict(type=_finite, default=0.0)),
        ("--max-t", dict(type=_finite, default=1e6)),
        ("--max-iter", dict(type=_finite, default=5e7,
                            help="windows to scan")),
    )),
    ("annulus", "radii"): (_cmd_radii, "radii of the unimodular annulus", (
        ("--r", dict(required=True)),
    )),
    ("annulus", "realize"): (_cmd_realize, "phases that reach a point z", (
        ("--r", dict(required=True)),
        ("--z", dict(required=True, help="re,im")),
        ("--tol", dict(type=_positive, default=1e-9)),
    )),
    ("ideals", "factor"): (_cmd_factor, "prime ideals of n + alpha", (
        ("--alpha", dict(required=True)),
        ("--n", dict(type=int, required=True)),
    )),
    ("ideals", "cassels"): (_cmd_cassels, "private primes of N < n <= N+M", (
        ("--alpha", dict(required=True)),
        ("--N", dict(type=int, required=True)),
        ("--M", dict(type=int, required=True)),
    )),
    ("twist", "sign-flip"): (_cmd_sign_flip, "real zero of a twisted series",
                             _SERIES + (
        ("--delta", dict(type=_finite, required=True)),
    )),
    ("twist", "greedy"): (_cmd_greedy, "greedy character ledger", _SERIES + (
        ("--blocks", dict(type=int, default=50)),
        ("--n1", dict(type=int, default=1000)),
        ("--scale-den", dict(type=int, default=100)),
        ("--sigma", dict(type=_finite)),
        ("--no-hp", dict(action="store_true",
                         help="skip the high-precision ledger recheck")),
    )),
    ("zeros", "count"): (_cmd_count, "zeros in a rectangle", _SERIES + (
        _TOL,
        ("--rect", dict(required=True, help="smin,smax,tmin,tmax")),
        ("--samples", dict(type=int, default=256)),
    )),
    ("zeros", "pipeline"): (_cmd_pipeline, "certified zero search", _SERIES + (
        ("--delta", dict(type=_finite, required=True)),
        # the defaults are PipelineBudget's own
        ("--max-t", dict(type=_finite, default=PipelineBudget.max_t)),
        ("--max-iter", dict(type=_finite,
                            default=PipelineBudget.max_iterations,
                            help="windows of the phase search")),
        ("--tmin", dict(type=_finite, default=PipelineBudget.t_min)),
        ("--ncut", dict(type=int, default=PipelineBudget.n_cut_max,
                        help="matched cut of the certificate")),
        ("--samples", dict(type=int, default=PipelineBudget.samples,
                           help="certificate samples on the circle")),
    )),
}


@functools.cache
def _top_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zetalab", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands:\n" + "".join(
            f"  {' '.join(words):<18}{entry[1]}\n"
            for words, entry in _COMMANDS.items()))
    # only the flags given are stored; the leaf parser adds the defaults
    for flag, kw in _GLOBAL_FLAGS:
        top.add_argument(flag, **{**kw, "default": argparse.SUPPRESS})
    top.add_argument("command", help="one or two command words, see below")
    top.add_argument("flags", nargs=argparse.REMAINDER,
                     help="the command's flags and global flags")
    return top


@functools.cache
def _leaf_parser(words: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of one command; parsing never changes it, so every call
    with the same command words shares it."""
    run, description, flags = _COMMANDS[words]
    leaf = argparse.ArgumentParser(prog=f"zetalab {' '.join(words)}",
                                   description=description)
    for flag, kw in flags + _GLOBAL_FLAGS:
        leaf.add_argument(flag, **kw)
    leaf.set_defaults(run=run)
    return leaf


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # both parsers come from caches, so a call builds a parser only the
    # first time a process meets its command words
    top = _top_parser()
    args = top.parse_args(argv)
    rest = vars(args).pop("flags")
    words = (args.command,)
    if words not in _COMMANDS and rest:
        words += (rest.pop(0),)
    if words not in _COMMANDS:
        if words[-1] in ("-h", "--help"):      # e.g. zetalab kron -h
            top.print_help()
            top.exit()
        top.error(f"invalid command {' '.join(words)!r}, see zetalab -h")
    return _leaf_parser(words).parse_args(rest, namespace=args)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.run(args)
    except ValueError as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return 2
    except ZetalabError as e:
        sys.stderr.write(render_json(e.to_json()) + "\n")
        return 2 if isinstance(e, ConfigInvalid) else 3


if __name__ == "__main__":
    sys.exit(main())
