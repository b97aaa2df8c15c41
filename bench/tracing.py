"""Per-layer numbers from outside the program.

Tracer.install() replaces each traced public function, in every zetalab
module that binds it, by a wrapper that records a span: inclusive time,
the time of traced spans nested inside it (direct children and, by name,
at any depth) and the number of nested calls.  uninstall() puts the
originals back.  Spans are aggregated as they close; nothing is written
until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = [
    ("zetalab.series", "hurwitz_zeta"), ("zetalab.series", "lfunction"),
    ("zetalab.series", "series_tail"),
    ("zetalab.zerofinder", "argument_count"),
    ("zetalab.kronecker", "solve"), ("zetalab.kronecker", "verify"),
    ("zetalab.quadfield", "private_primes"),
    ("zetalab.annulus", "realize_phases"),
    ("zetalab.twist", "choose_case_sigma"), ("zetalab.twist", "greedy_step"),
    ("zetalab.twist", "run_schedule"),
    ("zetalab.cli", "main"),
]

# per-layer metric -> unit; values are per round
METRICS = {
    "series.hurwitz_zeta.calls": "count",
    "series.hurwitz_zeta.s": "s",
    "series.hurwitz_zeta.t_lt_1e3.s": "s",
    "series.hurwitz_zeta.t_1e3_1e4.s": "s",
    "series.hurwitz_zeta.t_ge_1e4.s": "s",
    "series.lfunction.calls": "count",
    "series.lfunction.self_s": "s",
    "series.series_tail.s": "s",
    "zerofinder.argument_count.calls": "count",
    "zerofinder.argument_count.self_s": "s",
    "zerofinder.points": "count",
    "kronecker.solve.calls": "count",
    "kronecker.solve.n_le_4.s": "s",
    "kronecker.solve.n_gt_4.s": "s",
    "kronecker.verify.calls": "count",
    "quadfield.private_primes.calls": "count",
    "quadfield.private_primes.s": "s",
    "annulus.realize_phases.calls": "count",
    "annulus.realize_phases.s": "s",
    "twist.choose_case_sigma.s": "s",
    "twist.greedy_step.s": "s",
    "twist.run_schedule.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class _Frame:
    __slots__ = ("name", "child_s", "deep_s", "deep_calls")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0                  # direct traced children
        self.deep_s = defaultdict(float)    # nested at any depth, by name
        self.deep_calls = defaultdict(int)


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.acc = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans --
    def _wrap(self, name, fn):
        stack, record = self.stack, self._record

        def traced(*args, **kwargs):
            frame = _Frame(name)
            outer = tuple(f.name for f in stack)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                for f in stack:
                    f.deep_s[name] += dt
                    f.deep_calls[name] += 1
                record(name, dt, frame, outer, args)
        return traced

    def _record(self, name, dt, frame, outer, args):
        acc = self.acc
        if name == "hurwitz_zeta":
            t = abs(complex(args[0]).imag)
            band = "t_lt_1e3" if t < 1e3 else \
                "t_1e3_1e4" if t < 1e4 else "t_ge_1e4"
            acc["series.hurwitz_zeta.calls"] += 1
            acc["series.hurwitz_zeta.s"] += dt
            acc[f"series.hurwitz_zeta.{band}.s"] += dt
        elif name == "lfunction":
            acc["series.lfunction.calls"] += 1
            acc["series.lfunction.self_s"] += dt - frame.deep_s["hurwitz_zeta"]
        elif name == "series_tail":
            # direct tails only; tails inside lfunction belong to it
            if "lfunction" not in outer:
                acc["series.series_tail.s"] += dt
        elif name == "argument_count":
            acc["zerofinder.argument_count.calls"] += 1
            acc["zerofinder.argument_count.self_s"] += \
                dt - frame.deep_s["lfunction"]
            acc["zerofinder.points.total"] += frame.deep_calls["lfunction"]
        elif name == "solve":
            acc["kronecker.solve.calls"] += 1
            n = len(args[0].frequencies)
            acc["kronecker.solve.n_le_4.s" if n <= 4
                else "kronecker.solve.n_gt_4.s"] += dt
        elif name == "verify":
            acc["kronecker.verify.calls"] += 1
        elif name == "private_primes":
            acc["quadfield.private_primes.calls"] += 1
            acc["quadfield.private_primes.s"] += dt
        elif name == "realize_phases":
            acc["annulus.realize_phases.calls"] += 1
            acc["annulus.realize_phases.s"] += dt
        elif name == "choose_case_sigma":
            acc["twist.choose_case_sigma.s"] += dt
        elif name == "greedy_step":
            acc["twist.greedy_step.s"] += dt
        elif name == "run_schedule":
            acc["twist.run_schedule.self_s"] += dt - frame.child_s
        elif name == "main":
            acc["cli.self_s"] += dt - frame.child_s

    # ---------------------------------------------------------- patching --
    def install(self):
        """Wrap every traced function wherever a zetalab module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zetalab" or n.startswith("zetalab.")]
        for modname, attr in TRACED:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(attr, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def per_round(self, rounds: int, overhead_s: float) -> dict:
        """Every per-layer metric, averaged over the traced rounds."""
        acc = dict(self.acc)
        calls = acc.get("zerofinder.argument_count.calls", 0)
        points = acc.pop("zerofinder.points.total", 0)
        out = {}
        for name, unit in METRICS.items():
            if name == "zerofinder.points":
                value = points / calls if calls else 0
            elif name == "trace.overhead_s":
                value = overhead_s
            else:
                value = acc.get(name, 0) / rounds
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out
