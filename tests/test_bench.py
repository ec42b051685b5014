"""scripts/bench.py and the BENCH file it writes."""

import json
import subprocess
import sys
from pathlib import Path

from dklab.studies import STUDY_NAMES

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"label", "commit", "src_modified", "repeat", "machine", "src_lines",
        "hostspeed_kernel_s", "studies", "tier1"}
JOBS_KEYS = {"best_s", "median_s", "wall_s", "child_cpu_s", "codes"}


def test_bench_writes_every_key(tmp_path):
    # one cheap study and no tier-1 row keep this to a few seconds
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"),
                           "--label", "t", "--repeat", "1", "--study", "mollifier",
                           "--no-tier1", "--dest", str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(bench) == KEYS
    assert bench["label"] == "t" and bench["repeat"] == 1 and bench["tier1"] is None
    assert bench["src_lines"] == sum(len(p.read_text().splitlines())
                                     for p in (ROOT / "src" / "dklab").glob("*.py"))
    assert {"nproc", "python", "numpy", "simd"} <= set(bench["machine"])
    assert len(bench["hostspeed_kernel_s"]) == 2
    entry = bench["studies"]["mollifier"]
    assert set(entry) == {"jobs_1", "jobs_2", "raw_sha256"}
    for jobs in ("jobs_1", "jobs_2"):
        assert set(entry[jobs]) == JOBS_KEYS
        assert entry[jobs]["codes"] == [0]
        assert entry[jobs]["best_s"] == entry[jobs]["median_s"] > 0
    assert len(entry["raw_sha256"]) == 64  # one hash: the runs and jobs agree


def test_baseline_file_holds_every_study_and_one_hash_each():
    bench = json.loads((ROOT / "BENCH_baseline.json").read_text())
    assert set(bench) == KEYS
    assert len(bench["commit"]) == 40 and bench["src_modified"] is False
    assert set(bench["studies"]) == set(STUDY_NAMES)
    for entry in bench["studies"].values():
        assert isinstance(entry["raw_sha256"], str)
        for jobs in ("jobs_1", "jobs_2"):
            assert len(entry[jobs]["wall_s"]) == bench["repeat"]
    assert bench["tier1"]["code"] == 0
