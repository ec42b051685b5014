#!/usr/bin/env python3
"""Run every registered study at its default scale and print the roll-up.

Usage: python scripts/run_all_studies.py [--out DIR] [--seed N] [--jobs N]

Expect about six minutes single-process (344 s on a 2-vCPU x86 host); the
interaction and covariance studies take most of it.  Exit code follows the
CLI convention (2 if any verdict fails).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dklab.cli import main as cli_main
from dklab.studies import STUDY_NAMES


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    config = str(Path(__file__).resolve().parent.parent / "configs" / "default.json")
    worst = 0
    for name in STUDY_NAMES:
        print(f"=== study {name} ===", flush=True)
        code = cli_main(["study", name, "--config", config,
                         "--seed", str(args.seed), "--out", args.out,
                         "--jobs", str(args.jobs)])
        worst = max(worst, code)
    print("=== roll-up ===")
    code = cli_main(["report", "--out", args.out])
    return max(worst, code)


if __name__ == "__main__":
    sys.exit(main())
