#!/usr/bin/env python3
"""Run every registered study at its default scale and print the roll-up.

Usage: python scripts/run_all_studies.py [--out DIR] [--seed N] [--jobs N] [--check]

Expect a little over a minute single-process (71-78 s of study time over two
runs on a 2-vCPU x86 host); the interaction study takes more than half of it.  Exit code follows the
CLI convention (2 if any verdict fails).

--check also runs `dklab simulate` and `dklab spde` on the default config and
compares the sha256 of the newest raw.csv/report.json/config.json of each of
the nine runs with scripts/golden_defaults.json (seed 0 only).  A mismatch
prints both hashes and the machine keys that differ from the golden block,
and exits 1 unless a verdict failed.  The hashes were taken on the machine the
file's `machine` block describes; another numpy or libm build, or another of
numpy's SIMD dispatch targets (`simd`: float64 exp and tan take their bits
from it), may move the last bits of a float and with them the hashes.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dklab.cli import main as cli_main
from dklab.studies import STUDY_NAMES

GOLDEN = ROOT / "scripts" / "golden_defaults.json"
TRIO = ("raw.csv", "report.json", "config.json")


def machine() -> dict:
    """What the artifact bits may depend on besides the code."""
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "os": f"{platform.system()} {platform.machine()}",
            "libc": " ".join(platform.libc_ver()),
            "python": platform.python_version(), "numpy": np.__version__,
            "simd": " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))}


def check(out: Path) -> bool:
    """Whether the newest run of every golden entry has the committed hashes."""
    golden = json.loads(GOLDEN.read_text())
    n_bad = 0
    for name, hashes in golden["runs"].items():
        run = max((out / name).iterdir())  # run directories are timestamps
        for f in TRIO:
            got = hashlib.sha256((run / f).read_bytes()).hexdigest()
            if got != hashes[f]:
                print(f"mismatch {name}/{f}: {got}, golden {hashes[f]}")
                n_bad += 1
    n_files = len(golden["runs"]) * len(TRIO)
    print(f"golden check: {n_files - n_bad} of {n_files} files match")
    if n_bad:
        here, there = machine(), golden["machine"]
        differ = [k for k in sorted(here.keys() | there.keys()) if here.get(k) != there.get(k)]
        print(f"golden machine: {there}\nthis machine:   {here}")
        print(f"machine keys that differ: {', '.join(differ) or 'none'}")
    return n_bad == 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--check", action="store_true",
                    help="also run simulate and spde, then compare with the golden hashes")
    args = ap.parse_args()
    if args.check and args.seed != 0:
        ap.error("--check compares seed-0 runs")

    config = str(ROOT / "configs" / "default.json")
    commands = [["study", name] for name in STUDY_NAMES]
    if args.check:
        commands += [["simulate"], ["spde"]]
    worst = 0
    for command in commands:
        print(f"=== {' '.join(command)} ===", flush=True)
        code = cli_main([*command, "--config", config,
                         "--seed", str(args.seed), "--out", args.out,
                         "--jobs", str(args.jobs)])
        worst = max(worst, code)
    print("=== roll-up ===")
    worst = max(worst, cli_main(["report", "--out", args.out]))
    if args.check and not check(Path(args.out)):
        worst = max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
