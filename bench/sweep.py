"""Repeat the benchmark over seeds and summarise the spread.

    python3 bench/sweep.py --label A --runs 10 [--workloads eval,ledger]
    python3 bench/sweep.py --compare A B

Each run's result line is appended to bench/results/<label>.jsonl.  The
summary gives, per workload and metric, the median, the quartiles (as
statistics.quantiles(n=4) gives them) and the spread (q3 - q1) / median,
for the result's metrics and for the raw times on the run's RAW line.
--compare prints the ratio of the medians of two labels.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One run's result line and the raw times from its RAW line."""
    done = subprocess.run(
        ["python3", str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    raw = [ln[4:] for ln in lines if ln.startswith("RAW ")]
    return json.loads(lines[-1]), json.loads(raw[0]) if raw else {}


def load(label: str) -> dict:
    rows: dict = {}
    for line in (RESULTS / f"{label}.jsonl").read_text().splitlines():
        r = json.loads(line)
        rows.setdefault(r["workload"], []).append(r)
    return rows


def series(rows: list) -> dict:
    out: dict = {}
    for r in rows:
        m = r["result"]["metrics"]
        for k, v in m.items():
            out.setdefault(k, []).append(v["value"])
        for k, v in r.get("raw", {}).items():
            out.setdefault(k, []).append(v)
    return out


def summary(label: str, markdown: bool = False):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for workload, rows in load(label).items():
        shares = {(r["result"]["failed"], r["result"]["attempted"])
                  for r in rows}
        fail = sorted({f / a for f, a in shares})
        correct = all(r["result"]["correct"] for r in rows)
        print(f"{workload}: runs {len(rows)} correct {correct} "
              f"failed share {fail}")
        if markdown:
            print("\n| metric | median | q1 | q3 | spread | bound |\n"
                  "|---|---|---|---|---|---|")
        for name, vals in series(rows).items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            if markdown:
                print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} "
                      f"| {spread:.3f} | {b if b is not None else ''} |")
                continue
            flag = "" if b is None or name == "setup_s" else \
                f"  bound {b}  {'ok' if spread < b / 3 else 'WIDE'}"
            print(f"  {name:34s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {spread:.3f}{flag}")
        if markdown:
            print()


def compare(a: str, b: str):
    ra, rb = load(a), load(b)
    for workload in ra:
        sa, sb = series(ra[workload]), series(rb.get(workload, []))
        for name in sa:
            if name in sb:
                ma, mb = statistics.median(sa[name]), statistics.median(sb[name])
                print(f"{workload:8s} {name:34s} {a} {ma:.5g}  {b} {mb:.5g}"
                      f"  ratio {mb / ma:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--compare", nargs=2)
    ap.add_argument("--summary", action="store_true",
                    help="summarise --label as markdown tables, run nothing")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.summary:
        summary(args.label, markdown=True)
        return 0
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in BENCH["workloads"]]
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.label}.jsonl", "a") as fh:
        for workload in names:
            for k in range(args.runs):
                seed = args.first_seed + k
                res, raw = one(workload, seed, BENCH["run_seconds"])
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": res, "raw": raw}) + "\n")
                fh.flush()
                print(workload, seed, json.dumps(res), flush=True)
    summary(args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
