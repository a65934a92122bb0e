#!/usr/bin/env python3
"""Alternate benchmark runs between a base commit and the working tree.

Usage, from the repository root:

    python3 tools/ab_perfbench.py --base HEAD~1 --workload serial_patent_base --runs 10

The base commit is exported with ``git archive`` into a temporary
directory, which is deleted at exit; exporting leaves the repository's
``.git`` untouched even when the run is interrupted. Pair i runs
``perfbench/run.py`` on both sides with seed ``--seed + i`` and the
run length ``BENCHMARK.json`` sets, each side from its own checkout
(its own ``src`` and ``perfbench``). Which side
goes first alternates between pairs, so a drift of the host's speed
falls on both. A run whose output fails verification stops the
comparison.

The report gives, for every metric the runs print, each side's median
and quartiles, the ratio of the medians (working tree / base), and in
how many pairs the working tree was better, in the direction
``BENCHMARK.json`` declares. On a shared host a gain below ~25% needs
many pairs to show (see perfbench/NOTES.md).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return its commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    with subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE) as git:
        with tarfile.open(fileobj=git.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if git.returncode:
        raise RuntimeError(f"git archive {sha} failed with code {git.returncode}")
    return sha


def run_once(checkout: Path, args, seed: int, seconds: float) -> dict[str, float]:
    """One ``perfbench/run.py`` run in ``checkout``; its metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} "
                           "jobs failed verification")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def report(base: list[dict], new: list[dict], better: dict[str, str]) -> None:
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'metric':28} {'base median [q1, q3]':>32} {'tree median [q1, q3]':>32} "
          f"{'tree/base':>9} {'tree wins':>9}")
    for name in base[0]:
        b = [r[name] for r in base]
        n = [r[name] for r in new]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        print(f"{name:28} {cell(bq):>32} {cell(nq):>32} {ratio:9.3f} "
              f"{f'{wins}/{len(b)}':>9}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision, e.g. HEAD~1")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="number of pairs")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    runs: dict[str, list[dict]] = {"base": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="ab_perfbench_") as tmp:
        sha = export(args.base, Path(tmp))
        print(f"base {args.base} = {sha[:12]}, tree = {ROOT}", flush=True)
        sides = {"base": Path(tmp), "tree": ROOT}
        for i in range(args.runs):
            order = ("tree", "base") if i % 2 else ("base", "tree")
            for side in order:
                m = run_once(sides[side], args, args.seed + i, spec["run_seconds"])
                runs[side].append(m)
                # A traced run reports the per-layer metrics only.
                shown = [k for k in end_to_end if k in m] or list(m)
                print(f"pair {i} {side:4} seed {args.seed + i}: "
                      + " ".join(f"{k}={m[k]:.4g}" for k in shown), flush=True)
    report(runs["base"], runs["tree"], better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
