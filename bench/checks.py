"""Checks of zetalab's printed answers, made apart from zetalab.

Each check takes the text a command printed and what the answer must be
(a stored mpmath reference, a count of zeros located with mpmath, or a
property the method guarantees) and returns a list of problems; an empty
list means the answer is right.  Nothing here imports zetalab.
"""

from __future__ import annotations

import json

import mpmath as mp

import spec

# Tail sums are asked of the series layer at tol = max(1e-11, 1e-14/(sigma-1))
# (about 1.02e-11 at the ledger's sigma); a further 1e-11 covers rounding of
# a value near 1e3.
LEDGER_TAIL_TOL = 2e-11
# The float ledger and its 30-digit recheck see the same settled terms.
LEDGER_HP_TOL = 1e-9
LEDGER_REALIZE_TOL = 1e-9


def _json(text: str):
    try:
        return json.loads(text), []
    except ValueError as e:
        return None, [f"output is not JSON: {e}: {text[:80]!r}"]


def check_value(text: str, ref, tol: float) -> list[str]:
    """{"re", "im"} within tol of the reference [re, im]."""
    doc, bad = _json(text)
    if bad:
        return bad
    err = abs(complex(doc["re"], doc["im"]) - _complex(ref))
    return [] if err <= tol else [f"error {err:.3g} above tol {tol:.3g}"]


def _complex(ref) -> complex:
    return complex(float(mp.mpf(ref[0])), float(mp.mpf(ref[1])))


def check_grid(text: str, points, refs, tol: float) -> list[str]:
    """CSV rows sigma,t,re,im on the expected points, each within tol."""
    rows = [r for r in text.strip().splitlines()[1:] if r]
    if len(rows) != len(points):
        return [f"{len(rows)} grid rows, expected {len(points)}"]
    bad = []
    for row, (sigma, t), ref in zip(rows, points, refs):
        s, tt, re, im = (float(x) for x in row.split(","))
        if abs(s - sigma) > 1e-12 * abs(sigma) or abs(tt - t) > 1e-12 * abs(t):
            bad.append(f"grid point ({s}, {tt}) is not ({sigma}, {t})")
            continue
        err = abs(complex(re, im) - _complex(ref))
        if err > tol:
            bad.append(f"error {err:.3g} above tol {tol:.3g} at {sigma}+{t}i")
    return bad


def check_count(text: str, expected: int) -> list[str]:
    doc, bad = _json(text)
    if bad:
        return bad
    return [] if doc["count"] == expected else \
        [f"count {doc['count']}, expected {expected}"]


def circle_dist(x):
    f = x - mp.floor(x)
    return min(f, 1 - f)


def check_kron(text: str, freqs, targets, delta: float,
               tmin: float) -> list[str]:
    """t > tmin and max_n ||t w_n - b_n|| < delta, in 30-digit arithmetic."""
    doc, bad = _json(text)
    if bad:
        return bad
    t = doc["t"]
    if not t > tmin:
        return [f"t = {t} not above tmin = {tmin}"]
    with mp.workdps(30):
        tm = mp.mpf(t)
        err = max(circle_dist(tm * mp.mpf(w) - mp.mpf(b))
                  for w, b in zip(freqs, targets))
        if err >= delta:
            return [f"phase error {float(err):.4g} not below delta {delta}"]
    return []


def tail_mp(shift: str, sigma: float, start: int):
    """sum_{n >= start} (n + a)^-sigma by mpmath's zeta, 30 digits."""
    with mp.workdps(30):
        return mp.zeta(mp.mpf(sigma), spec.shift_mp(shift) + start)


def check_ledger(text: str, shift: str, ref: dict, hp: bool) -> list[str]:
    """Ledger of twist greedy, f = 1: settled, damped, tails right.

    ref is the stored ledger reference; tails are compared with it when the
    reported sigma is the stored one and recomputed by mpmath otherwise.
    """
    doc, bad = _json(text)
    if bad:
        return bad
    if not doc.get("ok"):
        bad.append(f"ok is {doc.get('ok')}, halted at {doc.get('halted_at')}")
    blocks = doc["blocks"]
    if len(blocks) != len(ref["tops"]):
        bad.append(f"{len(blocks)} blocks, expected {len(ref['tops'])}")
    stored = doc["sigma"] == float(ref["sigma"])
    for b, top, tail_ref in zip(blocks, ref["tops"], ref["tails"][shift]):
        j = b["j"]
        if b["n_end"] != top:
            bad.append(f"block {j}: ends at {b['n_end']}, expected {top}")
            continue
        tail = mp.mpf(tail_ref) if stored else \
            tail_mp(shift, doc["sigma"], top + 1)
        if abs(b["s4"] - tail) > LEDGER_TAIL_TOL:
            bad.append(f"block {j}: tail {b['s4']!r} off mpmath by "
                       f"{float(abs(b['s4'] - tail)):.3g}")
        if abs(b["damping_rhs"] - tail / 100) > LEDGER_TAIL_TOL / 100:
            bad.append(f"block {j}: damping_rhs off 1e-2 * tail")
        if not b["damping_lhs"] < b["damping_rhs"]:
            bad.append(f"block {j}: damping {b['damping_lhs']} >= "
                       f"{b['damping_rhs']}")
        if not b["realize_err"] <= LEDGER_REALIZE_TOL:
            bad.append(f"block {j}: realize_err {b['realize_err']:.3g}")
        if hp:
            if b["damping_ok_hp"] is not True:
                bad.append(f"block {j}: 30-digit damping check not passed")
            for key in ("damping_lhs", "damping_rhs"):
                x, y = b[key], b[key + "_hp"]
                if y is None or abs(x - y) > LEDGER_HP_TOL * max(1.0, abs(y)):
                    bad.append(f"block {j}: {key} {x!r} vs 30-digit {y!r}")
    return bad
