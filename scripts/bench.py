#!/usr/bin/env python3
"""Default-scale end-to-end timings, written to BENCH_<label>.json.

Usage: python scripts/bench.py --label L [--repeat K] [--study NAME ...]
                               [--no-tier1] [--dest DIR]

For each study (every registered one unless --study names some) and each of
--jobs 1 and --jobs 2, runs

    python -m dklab.cli study NAME --config configs/default.json --seed 0 --jobs J

K times (default 3), each in a fresh process with its own output directory,
and records per study and jobs value: every run's wall seconds, their best
and median, every run's child CPU seconds (user + system from
RUSAGE_CHILDREN, which also counts a run's pool workers) and its exit code,
and the sha256 of the run's raw.csv.  Then it times one tier-1 run (the
pytest command of ROADMAP.md), unless --no-tier1.

The file also holds the machine block of scripts/run_all_studies.py, the line
count of src/dklab/*.py, the commit measured (with `src_modified` true when
src/ differs from it), and perfbench's host-speed kernel time before and
after the runs (perfbench/hostspeed.py, imported and not changed), so two
files from one host can be compared.  It is written to DIR (default: the repo
root).  Exits 1 when a study's raw.csv differs between runs or between jobs
values, or when a run exits with an error (code 1), otherwise 0.  About five
minutes with K = 3 on a 2-vCPU x86 host.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import kernel_s  # noqa: E402
from run_all_studies import machine  # noqa: E402  (puts src/ on sys.path)

from dklab.studies import STUDY_NAMES  # noqa: E402

JOBS = (1, 2)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


def _timed(argv: list, **kw) -> tuple[subprocess.CompletedProcess, float, float]:
    """The finished process, its wall seconds and its children's CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True, **kw)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return done, wall, cpu


def study_run(name: str, jobs: int) -> dict:
    """One fresh-process run of a default study."""
    with tempfile.TemporaryDirectory() as out:
        done, wall, cpu = _timed([sys.executable, "-m", "dklab.cli", "study", name,
                                  "--config", str(ROOT / "configs" / "default.json"),
                                  "--seed", "0", "--out", out, "--jobs", str(jobs)])
        raws = sorted(Path(out).glob(f"{name}/*/raw.csv"))
        sha = hashlib.sha256(raws[0].read_bytes()).hexdigest() if raws else None
    if done.returncode == 1:
        print(done.stderr, file=sys.stderr, end="")
    return {"wall_s": wall, "child_cpu_s": cpu, "code": done.returncode, "raw_sha256": sha}


def tier1() -> dict:
    done, wall, cpu = _timed(TIER1, cwd=ROOT)
    tail = done.stdout.strip().splitlines()
    return {"wall_s": wall, "child_cpu_s": cpu, "code": done.returncode,
            "summary": tail[-1] if tail else ""}


def git_state() -> tuple[str | None, bool | None]:
    """The commit of the tree measured, and whether src/ differs from it."""
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None, None
    diff = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return head.stdout.strip(), bool(diff.stdout.strip())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--study", action="append", choices=STUDY_NAMES,
                    help="time only this study (repeatable); default: every study")
    ap.add_argument("--no-tier1", action="store_true", help="skip the tier-1 row")
    ap.add_argument("--dest", default=str(ROOT), help="directory of the BENCH file")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat needs at least 1")

    commit, src_modified = git_state()
    kernel_before = kernel_s()
    studies, ok = {}, True
    for name in args.study or STUDY_NAMES:
        runs = {j: [] for j in JOBS}
        for _ in range(args.repeat):
            for j in JOBS:
                runs[j].append(study_run(name, j))
        entry = {}
        for j, rs in runs.items():
            walls = [r["wall_s"] for r in rs]
            entry[f"jobs_{j}"] = {"best_s": min(walls), "median_s": statistics.median(walls),
                                  "wall_s": walls,
                                  "child_cpu_s": [r["child_cpu_s"] for r in rs],
                                  "codes": [r["code"] for r in rs]}
        hashes = sorted({r["raw_sha256"] for rs in runs.values() for r in rs}, key=str)
        entry["raw_sha256"] = hashes[0] if len(hashes) == 1 else hashes
        if len(hashes) != 1 or hashes[0] is None:
            print(f"{name}: raw.csv differs between runs or jobs: {entry['raw_sha256']}")
            ok = False
        if any(r["code"] == 1 for rs in runs.values() for r in rs):
            print(f"{name}: a run exited with an error")
            ok = False
        studies[name] = entry
        print(f"{name}: jobs 1 median {entry['jobs_1']['median_s']:.2f} s, "
              f"jobs 2 median {entry['jobs_2']['median_s']:.2f} s", flush=True)
    tier = None if args.no_tier1 else tier1()
    kernel_after = kernel_s()

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "dklab").glob("*.py"))
    bench = {"label": args.label, "commit": commit, "src_modified": src_modified,
             "repeat": args.repeat, "machine": machine(), "src_lines": src_lines,
             "hostspeed_kernel_s": [kernel_before, kernel_after],
             "studies": studies, "tier1": tier}
    path = Path(args.dest) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
