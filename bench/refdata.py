"""Reference-data command: every expected value, computed apart from zetalab.

    python3 bench/refdata.py            # recompute, write bench/reference.json
    python3 bench/refdata.py --check    # recompute, compare with the stored file

* eval: L(s, f, a) = q^-s sum_b f(b) zeta(s, (a+b)/q) with mpmath's own
  Hurwitz zeta at REF_DPS digits, for a fixed pool of points and grids the
  workload draws from, and for the fixed points of the kept fault.
* contour: the zeros of each function in its region.  A vectorised
  Euler-Maclaurin sum written here (checked against mpmath) drives a winding
  count that is accepted only when every phase step is below pi/4 and the
  count survives halving the step; cells are split until each holds one
  zero, which mpmath's findroot then pins at REF_DPS digits.  Pool
  rectangles take their counts from these zeros.
* ledger: the tail sum_{n > N_{j+1}} (n + a)^-sigma = zeta(sigma, a + N_{j+1}
  + 1) for every block end of the schedule, by mpmath's zeta.

Values are stored with STORE_DIGITS significant digits, zeros to 1e-12.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

import spec

REF_DPS = 40
STORE_DIGITS = 25
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _num(x) -> str:
    return mp.nstr(x, STORE_DIGITS)


# --------------------------------------------------------------- eval -----

def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def eval_inputs():
    """The pool of seeded points and grids, and the fault points."""
    rng = random.Random(spec.EVAL_POOL_SEED)
    edges = [spec.EVAL_T_LO * (spec.EVAL_T_HI / spec.EVAL_T_LO)
             ** (k / spec.EVAL_BANDS) for k in range(spec.EVAL_BANDS + 1)]
    points = []
    for band in range(spec.EVAL_BANDS):
        for shift, fvals in spec.EVAL_FAMILIES:
            for _ in range(spec.EVAL_POOL_PER_FAMILY):
                sigma = round(rng.uniform(1.1, 2.0), 6)
                t = round(_log_uniform(rng, edges[band], edges[band + 1]), 6)
                points.append({"band": band, "alpha": shift, "f": fvals,
                               "s": [sigma, t]})
    grids = []
    for k in range(spec.EVAL_GRID_POOL):
        shift, fvals = spec.EVAL_FAMILIES[k % len(spec.EVAL_FAMILIES)]
        s0 = round(rng.uniform(1.1, 1.4), 4)
        t0 = round(_log_uniform(rng, 50.0, 900.0), 3)
        grid = f"{s0!r},{s0 + 0.5!r},2:{t0!r},{t0 + 10.0!r},3"
        grids.append({"alpha": shift, "f": fvals, "grid": grid,
                      "points": grid_points(grid)})
    faults = [{"alpha": a, "f": f, "s": [sigma, t]}
              for a, f, sigma, t in spec.EVAL_FAULTS]
    return points, grids, faults


def grid_points(grid: str) -> list[list[float]]:
    """(sigma, t) of a 'smin,smax,ns:tmin,tmax,nt' grid, row by row."""
    srange, trange = grid.split(":")
    smin, smax, ns = srange.split(",")
    tmin, tmax, nt = trange.split(",")
    ns, nt = int(ns), int(nt)
    out = []
    for i in range(ns):
        sigma = float(smin) + (float(smax) - float(smin)) * i / max(ns - 1, 1)
        for j in range(nt):
            t = float(tmin) + (float(tmax) - float(tmin)) * j / max(nt - 1, 1)
            out.append([sigma, t])
    return out


def lvalue(shift, fvals, sigma, t) -> list[str]:
    with mp.workdps(REF_DPS):
        v = spec.lseries_mp(mp.mpc(sigma, t), shift, fvals)
        return [_num(v.real), _num(v.imag)]


def eval_reference() -> dict:
    points, grids, faults = eval_inputs()
    for p in points + faults:
        p["value"] = lvalue(p["alpha"], p["f"], *p["s"])
    for g in grids:
        g["values"] = [lvalue(g["alpha"], g["f"], sig, t)
                       for sig, t in g["points"]]
    return {"tol": spec.EVAL_TOL, "points": points, "grids": grids,
            "faults": faults}


# ------------------------------------------------------------ contour -----

_BC = [float(mp.bernoulli(2 * k) / mp.factorial(2 * k)) for k in range(1, 9)]


def _zeta_np(s: np.ndarray, a: float) -> np.ndarray:
    """Hurwitz zeta by Euler-Maclaurin with a cutoff past max|t|."""
    m = int(np.abs(s.imag).max()) + 60
    logn = np.log(np.arange(m, dtype=float) + a)
    out = np.empty(s.shape, dtype=complex)
    step = max(1, 2_000_000 // m)
    for lo in range(0, s.size, step):
        z = s[lo:lo + step]
        direct = np.exp(-np.outer(z, logn)).sum(axis=1)
        p = m + a
        lp = math.log(p)
        tail = np.exp((1 - z) * lp) / (z - 1) + 0.5 * np.exp(-z * lp)
        rise, pw = z.copy(), np.exp((-z - 1) * lp)
        for k, c in enumerate(_BC, start=1):
            tail += c * rise * pw
            rise = rise * (z + 2 * k - 1) * (z + 2 * k)
            pw = pw / (p * p)
        out[lo:lo + step] = direct + tail
    return out


def l_np(shift: str, fvals: str):
    a = float(spec.shift_mp(shift))
    c = spec.coefficients(fvals)
    q = len(c)

    def F(s: np.ndarray) -> np.ndarray:
        total = np.zeros(s.shape, dtype=complex)
        for b, fb in enumerate(c):
            if fb:
                total += fb * _zeta_np(s, (a + b) / q)
        return np.exp(-s * math.log(q)) * total
    return F


def _boundary(rect, h):
    s0, s1, t0, t1 = rect
    corners = [complex(s0, t0), complex(s1, t0), complex(s1, t1),
               complex(s0, t1)]
    pts = []
    for k in range(4):
        z1, z2 = corners[k], corners[(k + 1) % 4]
        n = max(4, math.ceil(abs(z2 - z1) / h))
        pts.append(z1 + (z2 - z1) * np.arange(n) / n)
    return np.concatenate(pts)


class Unsettled(Exception):
    pass


def winding(F, rect, h=0.02, h_min=1e-4) -> int:
    """Zeros of F in rect; every phase step < pi/4 and stable under h/2."""
    prev = None
    while h >= h_min:
        v = F(_boundary(rect, h))
        if np.abs(v).min() < 1e-9:
            raise Unsettled("value near zero on the boundary")
        d = np.angle(np.roll(v, -1) / v)
        if np.abs(d).max() < math.pi / 4:
            raw = d.sum() / (2 * math.pi)
            w = round(raw)
            if abs(raw - w) > 1e-6:
                raise Unsettled("winding not an integer")
            if w == prev:
                return w
            prev = w
        h /= 2
    raise Unsettled("step floor reached")


def _inside(z, rect) -> bool:
    s0, s1, t0, t1 = rect
    return s0 < z.real < s1 and t0 < z.imag < t1


def _locate(F, Fmp, rect, count, depth=0) -> list[complex]:
    """The count zeros of F inside rect."""
    if count == 0:
        return []
    s0, s1, t0, t1 = rect
    if count == 1 and max(s1 - s0, t1 - t0) < 0.05:
        with mp.workdps(REF_DPS):
            c = mp.mpc((s0 + s1) / 2, (t0 + t1) / 2)
            z = mp.findroot(Fmp, c, tol=mp.mpf(10) ** (-REF_DPS + 5))
            if abs(Fmp(z)) < mp.mpf(10) ** (-20):
                zc = complex(z)
                if _inside(zc, rect):
                    return [zc]
    if depth > 40:
        raise Unsettled(f"could not isolate zeros in {rect}")
    for frac in (0.5, 0.43, 0.61):
        if (t1 - t0) >= (s1 - s0):
            tm = t0 + frac * (t1 - t0)
            halves = [(s0, s1, t0, tm), (s0, s1, tm, t1)]
        else:
            sm = s0 + frac * (s1 - s0)
            halves = [(s0, sm, t0, t1), (sm, s1, t0, t1)]
        try:
            counts = [winding(F, r, h=min(0.02, (r[1] - r[0]) / 8,
                                          (r[3] - r[2]) / 8)) for r in halves]
        except Unsettled:
            continue
        if sum(counts) != count:
            continue
        out = []
        for r, k in zip(halves, counts):
            out += _locate(F, Fmp, r, k, depth + 1)
        return out
    raise Unsettled(f"no clean split of {rect}")


def zeros_in(shift, fvals, region) -> tuple[int, list[complex]]:
    F = l_np(shift, fvals)

    def Fmp(s):
        return spec.lseries_mp(s, shift, fvals)

    total = winding(F, region)
    s0, s1, t0, t1 = region
    zeros, strip = [], 10.0
    tt = t0
    while tt < t1:
        r = (s0, s1, tt, min(tt + strip, t1))
        zeros += _locate(F, Fmp, r, winding(F, r))
        tt += strip
    if len(zeros) != total:
        raise Unsettled(f"{len(zeros)} zeros located, winding says {total}")
    return total, sorted(zeros, key=lambda z: z.imag)


def _clearance(z, rect) -> float:
    s0, s1, t0, t1 = rect
    dx = max(s0 - z.real, 0.0, z.real - s1)
    dy = max(t0 - z.imag, 0.0, z.imag - t1)
    if dx or dy:
        return math.hypot(dx, dy)
    return min(z.real - s0, s1 - z.real, z.imag - t0, t1 - z.imag)


def check_numpy_evaluator(shift, fvals, region, n=12):
    rng = random.Random(7)
    F = l_np(shift, fvals)
    for _ in range(n):
        s = complex(rng.uniform(region[0], region[1]),
                    rng.uniform(region[2], region[3]))
        ref = complex(spec.lseries_mp(mp.mpc(s.real, s.imag), shift, fvals))
        if abs(F(np.array([s]))[0] - ref) > 1e-10 * max(1.0, abs(ref)):
            raise Unsettled(f"numpy evaluator disagrees with mpmath at {s}")


def contour_reference() -> dict:
    functions, pool = {}, []
    for name, (shift, fvals, region) in spec.CONTOUR_FUNCTIONS.items():
        check_numpy_evaluator(shift, fvals, region)
        total, zeros = zeros_in(shift, fvals, region)
        functions[name] = {"alpha": shift, "f": fvals, "rect": list(region),
                           "count": total,
                           "zeros": [[round(z.real, 12), round(z.imag, 12)]
                                     for z in zeros]}
        F = l_np(shift, fvals)
        t = region[2] + 4.0
        while t + spec.POOL_HEIGHT <= region[3]:
            rect = (spec.POOL_SIGMA, 2.0, t, t + spec.POOL_HEIGHT)
            if all(_clearance(z, rect) >= spec.POOL_CLEARANCE for z in zeros):
                count = sum(_inside(z, rect) for z in zeros)
                if winding(F, rect, h=0.01) != count:
                    raise Unsettled(f"pool count disagrees at {rect}")
                pool.append({"function": name, "alpha": shift, "f": fvals,
                             "rect": list(rect), "count": count})
            t = round(t + spec.POOL_T_STEP, 6)
    faults = [{"function": n, "alpha": functions[n]["alpha"],
               "f": functions[n]["f"], "rect": functions[n]["rect"],
               "count": functions[n]["count"]} for n in spec.CONTOUR_FAULTS]
    return {"functions": functions, "pool": pool, "faults": faults}


# ------------------------------------------------------------- ledger -----

def ledger_reference() -> dict:
    tops = spec.ledger_tops()
    out = {}
    with mp.workdps(REF_DPS):
        sigma = mp.mpf(spec.LEDGER_SIGMA)
        for shift in spec.LEDGER_SHIFTS:
            a = spec.shift_mp(shift)
            out[shift] = [_num(mp.zeta(sigma, a + top + 1)) for top in tops]
    return {"sigma": spec.LEDGER_SIGMA, "tops": tops, "tails": out}


# -------------------------------------------------------------- main ------

def build() -> dict:
    return {"dps": REF_DPS, "digits": STORE_DIGITS,
            "eval": eval_reference(), "contour": contour_reference(),
            "ledger": ledger_reference()}


def _diff(new, old, path="") -> list[str]:
    """Places where new and old disagree beyond the stored digits."""
    if isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            return [f"{path}: keys differ"]
        return [d for k in old for d in _diff(new[k], old[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: lengths differ"]
        return [d for i, (n, o) in enumerate(zip(new, old))
                for d in _diff(n, o, f"{path}[{i}]")]
    if isinstance(old, str) and isinstance(new, str) and old != new:
        try:
            a, b = mp.mpf(new), mp.mpf(old)
        except ValueError:
            return [f"{path}: {new!r} != {old!r}"]
        if abs(a - b) > mp.mpf(10) ** (1 - STORE_DIGITS) * max(abs(b), 1e-30):
            return [f"{path}: {new} != {old}"]
        return []
    if isinstance(old, float) and isinstance(new, float):
        return [] if abs(new - old) <= 1e-12 * max(1.0, abs(old)) \
            else [f"{path}: {new!r} != {old!r}"]
    return [] if new == old else [f"{path}: {new!r} != {old!r}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the stored file instead of writing")
    args = ap.parse_args(argv)
    data = build()
    if args.check:
        old = json.loads(REFERENCE.read_text())
        bad = _diff(json.loads(json.dumps(data)), old)
        for line in bad[:20]:
            print("MISMATCH", line)
        print("reference reproduced" if not bad else f"{len(bad)} mismatches")
        return 1 if bad else 0
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
