"""Command line driver: config ingestion, reproducible runs, artifacts.

One JSON document configures everything.  Top-level keys are `seed`, `out`,
`jobs` plus the per-command blocks `model`, `kernel`, `spde`, `study`.  The
document, with the `--seed`, `--out` and `--jobs` flags laid over it, and each
block are read by one rule, `studies.config_from_dict`: an object, no unknown
key, every value of its field's type.  Each run writes

    <out>/<name>/<timestamp>/raw.csv      bare header + rows, %.17g floats
    <out>/<name>/<timestamp>/report.json  verdict, checks, fitted slopes
    <out>/<name>/<timestamp>/config.json  the resolved configuration

report.json holds the study name (or the command), the seed, the verdict,
checks, slopes and details, the code version, the resolved config, and the
sha256 of raw.csv, so the directory is self-describing.  `cmd_study` times
the study runner itself and prints the wall-clock time to stdout only; the
runners and their reports carry no timing.  Identical (config, seed) must
give identical artifact bytes no matter how many worker processes ran, so
the parallelism degree is likewise kept out of the resolved config.

Exit codes: 0 success, 2 study verdict fail, 1 configuration/runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .fields import sobolev_norms, weighted_field_values
from .particles import (ConfigurationError, ModelParams, TimeStepError,
                        chaos_distance, simulate_coupled)
from .spde import DivergenceError, SpdeConfig, solve_spde, total_mass
from .studies import STUDY_REGISTRY, config_from_dict, potential_from_config
from .torus import ResolutionError, TorusGeometry, _at_least, make_kernel

class CliError(Exception):
    """Configuration or usage error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(obj):
    """Make a config/report tree JSON-safe (numpy scalars, inf, tuples)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def rows_to_csv(rows: list[dict]) -> bytes:
    """Header plus rows; columns in first-appearance order, %.17g floats."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, (bool, np.bool_)):
                cells.append("1" if v else "0")
            elif isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.17g}")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def write_artifacts(out_root: Path, name: str, rows: list[dict],
                    report: dict, resolved_config: dict) -> Path:
    raw = rows_to_csv(rows)
    report = dict(report)
    report["code_version"] = __version__
    report["raw_csv_sha256"] = hashlib.sha256(raw).hexdigest()
    report["resolved_config"] = _sanitize(resolved_config)

    base = out_root / name
    base.mkdir(parents=True, exist_ok=True)
    while True:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
        run_dir = base / stamp
        try:
            run_dir.mkdir()
            break
        except FileExistsError:
            continue
    (run_dir / "raw.csv").write_bytes(raw)
    (run_dir / "report.json").write_text(
        json.dumps(_sanitize(report), indent=2, sort_keys=True) + "\n")
    (run_dir / "config.json").write_text(
        json.dumps(_sanitize(resolved_config), indent=2, sort_keys=True) + "\n")
    return run_dir


# ---------------------------------------------------------------------------
# config ingestion


@dataclass
class RunConfig:
    """The top level of the config document, flags applied."""

    seed: int = 0
    out: str = "runs"
    jobs: int = 1
    model: dict = field(default_factory=dict)
    kernel: dict | None = None
    spde: dict | None = None
    study: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        _at_least(self, jobs=1)


@dataclass(frozen=True)
class ModelBlock(ModelParams):
    """The model block: particle parameters plus the ensemble to run."""

    potential: object = "cos"
    n_replicas: int = 16
    n_snapshots: int = 10

    def __post_init__(self):
        super().__post_init__()
        _at_least(self, n_replicas=1, n_snapshots=1)


@dataclass
class KernelBlock:
    """The kernel block; without n_grid the coarsest admissible grid is used."""

    epsilon: float
    n_grid: int | None = None


@dataclass(frozen=True)
class SpdeBlock(SpdeConfig):
    """The spde block: solver parameters plus the potential."""

    potential: object = "cos"


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object")
    return data


@contextlib.contextmanager
def _reading(block: str):
    """Report a wrong value read from `block` as one config error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad {block} config: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(run: RunConfig) -> int:
    with _reading("model"):
        params = config_from_dict(ModelBlock, run.model, "model")
        w = potential_from_config(params.potential)
    kern = None
    if run.kernel is not None:
        with _reading("kernel"):
            kb = config_from_dict(KernelBlock, run.kernel, "kernel")
            grid = None if kb.n_grid is None else TorusGeometry(kb.n_grid)
            kern = make_kernel(kb.epsilon, grid)
    snap_times = np.linspace(0.0, params.t_horizon, params.n_snapshots + 1)
    traj = simulate_coupled(params, w, n_replicas=params.n_replicas,
                            snapshot_times=snap_times, seed=run.seed)
    dist = chaos_distance(traj)

    rows = []
    for s, t in enumerate(traj.times):
        row = {
            "t": float(t),
            "chaos_distance": float(dist[s]),
            "kinetic_interacting": float(0.5 * (traj.p_int[s] ** 2).mean()),
            "kinetic_meanfield": float(0.5 * (traj.p_mf[s] ** 2).mean()),
        }
        if kern is not None:
            rho = weighted_field_values(traj.q_int[s], np.ones_like(traj.q_int[s]),
                                        kern, kern.geometry)
            norms = sobolev_norms(np.fft.rfft(rho) / kern.geometry.n_grid, k=1)
            row["h1_rho_mean"] = float(np.mean(norms))
        rows.append(row)

    resolved = {**dataclasses.asdict(params), "seed": run.seed}
    report = {"command": "simulate", "verdict": "pass",
              "checks": {"completed": True}, "seed": run.seed,
              "details": {"sup_chaos_distance": float(dist.max())}}
    run_dir = write_artifacts(Path(run.out), "simulate", rows, report, resolved)
    print(f"simulate: {params.n_replicas} replicas of {params.n_particles} particles, "
          f"sup coupling distance {dist.max():.6g}")
    print(f"artifacts: {run_dir}")
    return 0


def cmd_spde(run: RunConfig) -> int:
    if run.spde is None:
        raise CliError("spde command needs an spde block")
    block = dict(run.spde)
    if block.get("n_particles") == "inf":
        block["n_particles"] = math.inf
    with _reading("spde"):
        cfg = config_from_dict(SpdeBlock, block, "spde")
        w = potential_from_config(cfg.potential)
    traj = solve_spde(cfg, w, seed=run.seed)
    rows = [{"t": float(t), "h1_norm": float(n), "min_rho": float(m)}
            for t, n, m in zip(traj.step_times, traj.norm_path, traj.min_rho_path)]
    status = {"stopped": traj.status.stopped, "reason": traj.status.reason,
              "time": traj.status.time}
    report = {"command": "spde", "verdict": "pass",
              "checks": {"completed": True}, "seed": run.seed,
              "details": {"status": status,
                          "final_mass": total_mass(traj.final),
                          "final_norm": float(traj.norm_path[-1])}}
    resolved = {**dataclasses.asdict(cfg), "seed": run.seed}
    run_dir = write_artifacts(Path(run.out), "spde", rows, report, resolved)
    stop_note = (f"stopped at t = {traj.status.time:.6g} ({traj.status.reason})"
                 if traj.status.stopped else "ran to the horizon")
    print(f"spde: {stop_note}, final norm {traj.norm_path[-1]:.6g}")
    print(f"artifacts: {run_dir}")
    return 0


def cmd_study(name: str, run: RunConfig) -> int:
    if name not in STUDY_REGISTRY:
        raise CliError(f"unknown study {name!r}; choose from "
                       f"{', '.join(sorted(STUDY_REGISTRY))}")
    block = dict(run.study)
    block_name = block.pop("name", None)
    if block_name is not None and block_name != name:
        raise CliError(f"study block names {block_name!r} but the command "
                       f"asked for {name!r}")
    cfg_cls, runner = STUDY_REGISTRY[name]
    with _reading("study"):
        study_cfg = config_from_dict(cfg_cls, block, "study")

    t0 = time.perf_counter()
    report = runner(study_cfg, seed=run.seed, jobs=run.jobs)
    runtime = time.perf_counter() - t0
    resolved = {**dataclasses.asdict(study_cfg), "seed": run.seed}
    run_dir = write_artifacts(Path(run.out), name, report.raw_table,
                              {"study_name": name, "seed": run.seed, **report.to_dict()},
                              resolved)
    print(f"study {name}: verdict {report.verdict} ({runtime:.1f} s)")
    for check, ok in report.checks.items():
        if not ok:
            print(f"  failed check: {check}")
    print(f"artifacts: {run_dir}")
    return 0 if report.verdict == "pass" else 2


def cmd_report(out_root: Path) -> int:
    """List every report's verdict; every verdict but "pass" fails, and a
    report without a string verdict is unreadable."""
    entries = []
    for p in sorted(out_root.glob("*/*/report.json")):
        try:
            verdict = json.loads(p.read_text())["verdict"]
        except (OSError, ValueError, TypeError, KeyError):  # ValueError: bad JSON or bytes
            verdict = None
        if not isinstance(verdict, str):
            print(f"error: unreadable report {p}", file=sys.stderr)
            verdict = "unreadable"
        entries.append((p.parent.parent.name, p.parent.name, verdict))
    if not entries:
        print("no studies found", file=sys.stderr)
        return 1
    for name, stamp, verdict in entries:
        print(f"{name} {stamp} {verdict}")
    n_fail = sum(verdict != "pass" for *_, verdict in entries)
    print(f"{len(entries)} runs, {n_fail} failing")
    return 2 if n_fail else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="dklab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["simulate", "spde", "study", "report"])
    parser.add_argument("name", nargs="?", default=None,
                        help="study name (study command only)")
    parser.add_argument("--config", default=None, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed, overrides the config")
    parser.add_argument("--out", default=None, help="output root directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for study cells")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "study" and args.name is None:
            raise CliError("study command needs a study name")
        if args.command != "study" and args.name is not None:
            raise CliError(f"unexpected positional argument {args.name!r}")

        config = load_config(args.config) if args.config else {}
        if args.command != "report" and not args.config:
            raise CliError("this command needs --config")

        # the file passes the rule before the flags override it, so no flag hides a bad value
        flags = {k: getattr(args, k) for k in ("seed", "out", "jobs")
                 if getattr(args, k) is not None}
        run = dataclasses.replace(config_from_dict(RunConfig, config, "config"), **flags)

        if args.command == "simulate":
            return cmd_simulate(run)
        if args.command == "spde":
            return cmd_spde(run)
        if args.command == "study":
            return cmd_study(args.name, run)
        return cmd_report(Path(run.out))
    except (CliError, ConfigurationError, ResolutionError, DivergenceError,
            TimeStepError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
