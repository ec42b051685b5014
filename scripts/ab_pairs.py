#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against the working tree.

Usage: python scripts/ab_pairs.py --base REV --workload W[,W...]|all --pairs K --seed S

Exports REV with `git archive` into a temporary directory, then, for each
workload W in turn (`all` stands for every workload of BENCHMARK.json), runs

    python3 perfbench/run.py --workload W --seed S --seconds 32 --trace 0

K times in that export and K times in this checkout, alternating which side
of a pair runs first (the seconds are BENCHMARK.json's `run_seconds`).  For
each workload and end-to-end metric of BENCHMARK.json it prints every run,
each side's median and quartiles, and the pairs the working tree won (ties
count for neither), then two verdicts:

- gain: the working tree won at least nine tenths of the pairs and its
  median is better than the base's by more than the base's interquartile
  range;
- regression: the working tree's median is worse than the base's by more
  than the metric's relative bound.

Then it prints each run's CPU seconds and each side's median, from the
`cpu_s` list of perfbench's detail line (the median over a run's
repetitions, in raw seconds of every thread of the study call).  A change
that moves work to a second thread shows there what it costs in CPU time.

It ends with one verdict line per workload and metric.  A change that claims
a gain on one metric of one workload needs "gain: yes" on that line and
"regression: no" on every line.

Each tree's benchmark writes its scratch output to that tree's own
.perfbench_out/; nothing under perfbench/ is changed.  Exits 1 when a run
fails to produce a result line, otherwise 0.
"""

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Unpack the tree of `rev` into dest."""
    archive = dest / "tree.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o",
                    str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one benchmark run in `tree`, name -> value, and its
    median `cpu_s` from the detail line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError(f"benchmark in {tree} exited {done.returncode}")
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["cpu_s"] = float(np.median(json.loads(lines[-2])["detail"]["cpu_s"]))
    return values


def summarise(spec: list, base: list, new: list) -> list:
    """Print each metric's runs and verdicts; return them as lines."""
    verdicts = []
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        a = np.array([run[name] for run in base])
        b = np.array([run[name] for run in new])
        sign = 1.0 if lower else -1.0  # sign * (base - new) > 0: new is better
        wins = int((sign * (a - b) > 0).sum())
        q_a, q_b = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        gap = sign * (q_a[1] - q_b[1])
        gain = wins >= 0.9 * len(a) and gap > q_a[2] - q_a[0]
        regression = -gap > metric["bound"] * abs(q_a[1])
        print(f"{name} [{metric['unit']}], {metric['better']} is better")
        print("  base runs: " + " ".join(f"{v:.4g}" for v in a))
        print("  new runs:  " + " ".join(f"{v:.4g}" for v in b))
        for side, q in (("base", q_a), ("new", q_b)):
            print(f"  {side:<5} median {q[1]:.4g}  quartiles {q[0]:.4g} .. {q[2]:.4g}")
        change = -sign * gap / q_a[1] + 0.0 if q_a[1] else 0.0  # + 0.0: no -0.0
        print(f"  new won {wins} of {len(a)} pairs; median change {change:+.1%}; "
              f"base IQR {q_a[2] - q_a[0]:.4g}")
        verdict = (f"gain: {'yes' if gain else 'no'}; regression beyond the "
                   f"{metric['bound']:.0%} bound: {'yes' if regression else 'no'}")
        print("  " + verdict)
        verdicts.append(f"{name}: median {change:+.1%}, won {wins} of {len(a)}; {verdict}")
    print("cpu_s [s], raw CPU seconds of the study call, all threads (not gated)")
    for side, runs in (("base", base), ("new", new)):
        cpu = [run["cpu_s"] for run in runs]
        print(f"  {side:<5} runs: " + " ".join(f"{v:.4g}" for v in cpu)
              + f"  median {np.median(cpu):.4g}")
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has "
                     f"{', '.join(known)}")
    runs = {w: {"base": [], "new": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        export(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "new": ROOT}
        try:
            for workload in workloads:
                for i in range(args.pairs):
                    order = ("base", "new") if i % 2 == 0 else ("new", "base")
                    for side in order:
                        runs[workload][side].append(run_once(
                            trees[side], workload, args.seed, bench["run_seconds"]))
                    print(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)",
                          file=sys.stderr)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    verdicts = []
    for workload in workloads:
        print(f"workload {workload}, seed {args.seed}, base {args.base}, "
              f"{args.pairs} pairs of {bench['run_seconds']} s runs")
        verdicts += [f"{workload} {line}" for line in
                     summarise(bench["end_to_end"], runs[workload]["base"],
                               runs[workload]["new"])]
    print("verdicts")
    for line in verdicts:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
