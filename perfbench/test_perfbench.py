"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs once at its `tiny` size through the same code path the
benchmark uses (fresh child processes, correctness gate, tracing).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_declared_workloads_and_metrics_match_the_code():
    assert {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS)
    assert END_TO_END == run.END_TO_END_UNITS
    assert PER_LAYER == layertrace.layer_metric_units()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    result, detail = run.measure(name, seed=1, seconds=0, trace=False, scale="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for metric in ("wall_s", "setup_s", "peak_rss_mb", "pass_frac"):
        assert result["metrics"][metric]["value"] > 0
    assert detail["raw_csv_sha256"] is not None
    # tiny ladders may fail a statistical check, never the determinism gate
    assert not [p for p in detail["problems"] if "sha256" in p or "no report" in p]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_traced_run_accounts_for_its_spans(name):
    result, detail = run.measure(name, seed=1, seconds=0, trace=True, scale="tiny")
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    values = {k: v["value"] for k, v in metrics.items()}
    # one untraced and one traced repetition; bits must not change under tracing
    assert len(detail["traced_wall_s"]) == 1
    assert not [p for p in detail["problems"] if "sha256" in p]

    spans = np.load(run.OUT / f"spans-{name}.npz")
    par, start, end = spans["parent"], spans["start"], spans["end"]
    dur = end - start
    child = par >= 0
    assert np.all(np.isfinite(dur)) and np.all(dur >= 0)
    assert (~child).sum() == 1  # cli.main is the only root
    assert np.all(start[par[child]] <= start[child])
    assert np.all(end[child] <= end[par[child]])
    covered = np.bincount(par[child], weights=dur[child], minlength=len(dur))
    assert np.all(covered <= dur + 1e-9)  # children's total within the parent
    root_s = float(dur[~child].sum())
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(root_s, rel=1e-9, abs=1e-9)
    assert root_s <= values["trace.traced_wall_s"]
    assert values["trace.spans"] == len(dur)
    assert values["cli.write_artifacts.calls"] == 1


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(run.ROOT / "src"))
    import dklab
    from dklab import fields, particles, spde, studies

    before = (fields.von_mises_eval, particles.pairwise_force, studies._advance,
              spde.SpectralState.norm_h1, dict(studies.STUDY_REGISTRY),
              dklab.sobolev_norm)
    tracer = layertrace.Tracer()
    tracer.install()
    assert studies.pairwise_force is particles.pairwise_force
    assert studies.pairwise_force.__wrapped__ is before[1]
    assert studies.STUDY_REGISTRY["chaos"][1] is studies.run_chaos_study
    tracer.uninstall()
    after = (fields.von_mises_eval, particles.pairwise_force, studies._advance,
             spde.SpectralState.norm_h1, dict(studies.STUDY_REGISTRY),
             dklab.sobolev_norm)
    assert after == before


def _fake_run(tmp_path: Path, raw: bytes, recorded_hash: str, verdict="pass") -> Path:
    run_dir = tmp_path / "out" / "chaos" / "stamp"
    run_dir.mkdir(parents=True)
    (run_dir / "raw.csv").write_bytes(raw)
    (run_dir / "report.json").write_text(json.dumps(
        {"verdict": verdict, "checks": {"a": verdict == "pass"},
         "raw_csv_sha256": recorded_hash}))
    return tmp_path / "out"


def test_gate_counts_a_hash_mismatch_and_a_failed_verdict(tmp_path):
    gate = run.Gate()
    raw = b"n,distance\n1,0.5\n"
    good = hashlib.sha256(raw).hexdigest()
    run.check_rep(run.WORKLOADS["chaos"], _fake_run(tmp_path / "a", raw, good), 0, gate, 1)
    assert (gate.attempted, gate.failed) == (3, 0)
    other = b"n,distance\n1,0.25\n"
    run.check_rep(run.WORKLOADS["chaos"],
                  _fake_run(tmp_path / "b", other, hashlib.sha256(other).hexdigest()),
                  0, gate, 1)
    assert (gate.attempted, gate.failed) == (6, 1)
    run.check_rep(run.WORKLOADS["chaos"], _fake_run(tmp_path / "c", raw, good, "fail"),
                  2, gate, 1)
    assert (gate.attempted, gate.failed) == (9, 3)
    run.check_rep(run.WORKLOADS["chaos"], tmp_path / "missing", None, gate, 1)
    assert (gate.attempted, gate.failed) == (12, 6)


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "chaos", "--seed", "0", "--seconds", "1"]) == 2


def test_scaling_cancels_host_speed_and_keeps_program_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(3.0, ref, ref) == pytest.approx(3.0)
    # a host twice as slow doubles both the study and the kernel
    assert hostspeed.scale(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    # a program twice as slow on the same host still reads twice as slow
    assert hostspeed.scale(6.0, ref, ref) == pytest.approx(6.0)
    assert hostspeed.kernel_s() > 0
