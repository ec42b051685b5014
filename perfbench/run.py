"""Time-to-verdict benchmark for dklab's studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/dklab`.  Each workload is one
`dklab study` invocation on a generated JSON config at --jobs 1, executed in
a fresh interpreter per repetition (perfbench/child.py) so that set-up time
and peak memory are what a user pays.  Repetitions run back to back until
--seconds is spent, all with the same seed, and every timing reported is the
median over them.  A host-speed reference kernel (perfbench/hostspeed.py)
runs between repetitions, and wall_s and setup_s are reported in
reference-host seconds; the raw seconds are in the detail line.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate and it carries the
per-layer metrics (perfbench/layertrace.py) plus the tracing overhead.  Span
files and a per-layer summary go to .perfbench_out/ in the checkout.

Every repetition passes a correctness gate: exit code 0, verdict "pass" with
every check true, raw.csv hashing to the value in report.json and to the
same value on every repetition, and (interaction_fine) an identity residue of
at most 1e-12.  Each check and gate is one attempted operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed  # found next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    study: str
    block: dict
    tiny: dict
    gates: tuple = ()


# Why each workload exists and how its size was chosen: perfbench/README.md.
# Sizes are cut from the study defaults so that five or more fresh-process
# repetitions fit in one run while every statistical check stays clear on
# every seed tried.  `tiny` keeps each code path but finishes in about a second.
WORKLOADS = {
    "chaos": Workload(
        study="chaos",
        block={"n_replicas": 16, "t_horizon": 0.5, "burn_in": 0.25, "n_snapshots": 5},
        tiny={"n_ladder": [16, 32, 64, 128], "n_replicas": 2, "t_horizon": 0.1,
              "burn_in": 0.05, "n_snapshots": 2}),
    "interaction_fine": Workload(
        study="interaction",
        block={"eps_ladder": [0.2, 0.1, 0.05, 0.025], "theta": 2.5, "n_replicas": 2,
               "moment_eps_ladder": [0.45, 0.4, 0.35, 0.3], "moment_replicas": 1},
        tiny={"eps_ladder": [0.4, 0.2], "theta": 2.0, "n_replicas": 1,
              "moment_eps_ladder": [0.6, 0.5], "moment_replicas": 1,
              "moment_t_horizon": 0.05, "t_measure": 0.05},
        gates=("identity_residue",)),
    "small_noise": Workload(
        study="small_noise",
        block={"n_replicas": 16, "t_horizon": 0.1},
        tiny={"n_replicas": 2, "t_horizon": 0.01}),
    "covariance_short": Workload(
        study="covariance",
        block={"n_replicas": 10000, "t_horizon": 0.01, "theta": 2.5},
        tiny={"n_replicas": 1000, "t_horizon": 0.01, "eps_ladder": [0.4, 0.2],
              "theta": 2.0}),
}


@dataclass
class Gate:
    """Correctness bookkeeping across the repetitions of one run."""

    attempted: int = 0
    failed: int = 0
    raw_sha256: str | None = None
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check_rep(workload: Workload, out_dir: Path, rc, gate: Gate, n_checks: int) -> int:
    """Apply the correctness gate to one repetition; returns its check count."""
    reports = sorted(out_dir.glob("*/*/report.json"))
    if len(reports) != 1:
        for _ in range(n_checks + 2 + len(workload.gates)):  # + verdict, hash
            gate.record(False, f"run ended with exit code {rc} and no report")
        return n_checks
    report = json.loads(reports[0].read_text())
    checks = report.get("checks", {})
    for name, ok in sorted(checks.items()):
        gate.record(ok is True, f"check {name} failed")
    gate.record(report.get("verdict") == "pass" and rc == 0,
                f"verdict {report.get('verdict')!r}, exit code {rc}")
    raw = hashlib.sha256((reports[0].parent / "raw.csv").read_bytes()).hexdigest()
    if gate.raw_sha256 is None:
        gate.raw_sha256 = raw
    gate.record(raw == report.get("raw_csv_sha256") == gate.raw_sha256,
                f"raw.csv sha256 {raw} differs between repetitions or from report.json")
    if "identity_residue" in workload.gates:
        residue = report.get("details", {}).get("worst_identity_residue", float("inf"))
        gate.record(residue <= 1e-12, f"identity residue {residue} above 1e-12")
    return len(checks)


class Runner:
    """Launches fresh-process repetitions inside one working directory."""

    def __init__(self, name: str, workload: Workload, seed: int, work: Path, scale: str):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        block = dict(workload.tiny if scale == "tiny" else workload.block)
        block["name"] = workload.study
        self.config = work / "config.json"
        self.config.write_text(json.dumps(
            {"seed": seed, "jobs": 1, "study": block}, indent=2, sort_keys=True))

    def launch(self, *, trace: bool, deadline: float) -> tuple[dict | None, Path]:
        self.count += 1
        rep = self.work / f"rep{self.count:03d}"
        rep.mkdir()
        spec = {"src": str(ROOT / "src"), "study": self.workload.study,
                "config": str(self.config), "seed": self.seed, "out": str(rep / "out"),
                "trace": trace, "result": str(rep / "result.json"),
                "spans": str(OUT / f"spans-{self.name}.npz")}
        spec_path = rep / "spec.json"
        with open(rep / "log.txt", "wb") as log:
            spec["launched"] = time.monotonic()
            spec_path.write_text(json.dumps(spec))
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=str(ROOT))
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result_path = rep / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write((rep / "log.txt").read_text(errors="replace")[-2000:])
            return None, rep
        return json.loads(result_path.read_text()), rep


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> tuple[dict, dict]:
    """Run one workload for `seconds`; returns (result line, run details)."""
    workload = WORKLOADS[name]
    t_start = time.monotonic()
    hard_deadline = t_start + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT))
    gate = Gate()
    setups, walls, cpus, rss, traced_walls, layer_runs = [], [], [], [], [], []
    scaled_walls, scaled_setups, kernels = [], [], []
    versions = {}
    try:
        runner = Runner(name, workload, seed, work, scale)
        n_checks = 1
        longest = 0.0
        traced_next = False
        hostspeed.kernel_s()  # warm-up: the first call pays numpy's lazy set-up
        kernels.append(hostspeed.kernel_s())
        while True:
            t_rep = time.monotonic()
            res, rep = runner.launch(trace=traced_next, deadline=hard_deadline)
            kernels.append(hostspeed.kernel_s())
            rc = None if res is None else res["rc"]
            n_checks = check_rep(workload, rep / "out", rc, gate, n_checks) or n_checks
            if res is not None:
                setups.append(res["setup_s"])
                versions = res["versions"]
                if traced_next:
                    traced_walls.append(res["wall_s"])
                    layer_runs.append(res["layers"])
                else:
                    walls.append(res["wall_s"])
                    scaled_walls.append(hostspeed.scale(res["wall_s"], *kernels[-2:]))
                    scaled_setups.append(hostspeed.scale(res["setup_s"], *kernels[-2:]))
                    cpus.append(res["cpu_s"])
                    rss.append(res["peak_rss_mb"])
            shutil.rmtree(rep)
            longest = max(longest, time.monotonic() - t_rep)
            if trace:
                traced_next = not traced_next
                if traced_next:
                    continue  # every untraced repetition gets its traced twin
            elapsed = time.monotonic() - t_start
            if elapsed + longest * (2 if trace else 1) > seconds:
                break
            if time.monotonic() + longest > hard_deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        from layertrace import layer_metric_units, roadmap_table
        units = layer_metric_units()
        values = {k: _median([run[k] for run in layer_runs]) for k in units
                  if layer_runs and k in layer_runs[0]}
        values["trace.untraced_wall_s"] = _median(walls)
        values["trace.traced_wall_s"] = _median(traced_walls)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        (OUT / f"layers-{name}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "metrics": values,
             "roadmap": roadmap_table(values), "provenance": provenance(versions)},
            indent=2, sort_keys=True))
        report_layers(name, values, roadmap_table(values))
    else:
        values = {"wall_s": _median(scaled_walls), "setup_s": _median(scaled_setups),
                  "peak_rss_mb": _median(rss),
                  "pass_frac": (gate.attempted - gate.failed) / max(1, gate.attempted)}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    detail = {"workload": name, "seed": seed, "repetitions": len(walls) + len(traced_walls),
              "wall_s": walls, "cpu_s": cpus, "traced_wall_s": traced_walls,
              "setup_s": setups, "kernel_s": kernels,
              "scaled_wall_s": scaled_walls, "scaled_setup_s": scaled_setups,
              "raw_csv_sha256": gate.raw_sha256,
              "failed_frac": gate.failed / max(1, gate.attempted),
              "problems": gate.problems[:10], "provenance": provenance(versions)}
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    return result, detail


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


def provenance(versions: dict) -> dict:
    src = ROOT / "src" / "dklab"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "blas_threads": {v: "1" for v in THREAD_VARS},
            "git_commit": commit, "src_lines": lines, "machine": platform.machine()}


def report_layers(name: str, values: dict, roadmap: list) -> None:
    err = sys.stderr
    err.write(f"\n{name}: traced {values['trace.traced_wall_s']:.3f} s, untraced "
              f"{values['trace.untraced_wall_s']:.3f} s, overhead "
              f"{values['trace.overhead_s']:+.3f} s\n")
    selfs = sorted(((v, k[:-7]) for k, v in values.items() if k.endswith(".self_s")),
                   reverse=True)
    attributed = sum(v for v, _k in selfs)
    for v, k in selfs:
        if v > 0:
            err.write(f"  {k:<42} self {v:9.4f} s\n")
    err.write(f"  sum of self times {attributed:.4f} s (cli.main self time is the "
              "part no layer claims)\n")
    err.write("  ROADMAP item 1 row                                  ROADMAP   measured\n")
    for row in roadmap:
        fig = "-" if row["roadmap_s"] is None else f"{row['roadmap_s']:.3g}"
        got = "-" if row["measured_s"] is None else f"{row['measured_s']:.3g}"
        err.write(f"  {row['row']:<50} {fig:>9} {got:>10}  {row['metric']}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dklab" / "__init__.py").is_file():
        print(f"error: no dklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
