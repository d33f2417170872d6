#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on this checkout, in pairs.

For every workload of ``BENCHMARK.json``, ``perfbench/run.py`` runs N
times on each side for the benchmark's ``run_seconds``, the two sides
alternating and the side that goes first swapping every pair.
The parent's committed files are extracted with ``git archive`` under
``.bench_build/`` and run their own ``perfbench/`` and ``src/``; the
change is this checkout, as its files stand.  Timing is left to run.py:
each run's record line and metrics line are kept as run.py printed them.

The runs are appended as one round to ``BENCH_<number>.json`` at the
repository root.  Each end-to-end metric of ``BENCHMARK.json`` is
summarized per side (median and quartiles) with the pairs the change won,
and so is ``raw_wall_s``, each run's median raw pass time: the end-to-end
times are scaled by a host-speed reference, and the raw medians show
whether scaling moved a result.
Run from the repository root, with nothing else busy on the machine:

    python3 scripts/bench_pairs.py 9 --parent HEAD~1 --pairs 10 --seed 0
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="writes BENCH_<number>.json")
    parser.add_argument("--parent", default="HEAD~1",
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """run.py's record and metrics lines of one run in ``tree``, as long as
    ``BENCHMARK.json``'s ``run_seconds``."""
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"])],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise RuntimeError(f"{tree}: {workload} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric, and for ``raw_wall_s`` (each run's median
    raw pass time, not scaled by host speed): each side's median and
    quartiles, and the pairs in which the change read better (ties count
    for neither)."""
    summary = {}
    raw = {"name": "raw_wall_s", "better": "lower"}
    for metric in [*BENCHMARK["end_to_end"], raw]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        sides = {side: [statistics.median(r["record"]["pass_s"])
                        if metric is raw else r["metrics"][name]["value"]
                        for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        summary[name] = {
            side: dict(zip(("q1", "median", "q3"),
                           statistics.quantiles(values, n=4)
                           if len(values) > 1 else values * 3))
            for side, values in sides.items()}
        summary[name]["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"],
                                               sides["change"]))
    return summary


def revision(rev: str, dirty: bool = False) -> dict:
    """A commit and the tree ids of the ``src`` and ``perfbench`` it runs;
    the tree ids outlive a rebase of the commit."""
    return {"commit": rev, "src": git("rev-parse", f"{rev}:src"),
            "perfbench": git("rev-parse", f"{rev}:perfbench"),
            "dirty": dirty}


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    tree = ROOT / ".bench_build" / f"parent-{parent_rev[:12]}"
    if not tree.exists():
        tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", parent_rev], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait():
            raise RuntimeError(f"git archive {parent_rev} failed")
    out = ROOT / f"BENCH_{args.number}.json"
    rounds = (json.loads(out.read_text(encoding="utf-8"))["rounds"]
                if out.exists() else [])
    this = {
        "parent": revision(parent_rev),
        # uncommitted edits under src/ or perfbench/ are measured too
        "change": revision(git("rev-parse", "HEAD"), bool(
            git("status", "--porcelain", "--", "src", "perfbench"))),
        "seed": args.seed,
        "seconds": BENCHMARK["run_seconds"],
        "pairs": args.pairs,
        "workloads": {},
    }
    try:
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            runs = []
            for pair in range(args.pairs):
                sides = [("parent", tree), ("change", ROOT)]
                for order, (name, where) in enumerate(
                        sides[::-1] if pair % 2 else sides):
                    run = run_once(where, workload, args.seed)
                    runs.append({"pair": pair, "order": order, "side": name,
                                 **run})
                    wall = run["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} {name}: wall_s {wall:.4f}"
                          f" correct {run['correct']}", flush=True)
            this["workloads"][workload] = {"summary": summarize(runs),
                                              "runs": runs}
            # written after every workload, so a stopped run keeps the rest
            out.write_text(json.dumps({"rounds": rounds + [this]}, indent=1)
                           + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
