"""Tests of the benchmark itself: its metric names, seeding and tracer."""

from __future__ import annotations

import gc
import json
import multiprocessing.pool
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import ta2n  # noqa: E402
import ta2n.model as model_mod  # noqa: E402
import ta2n.synth as synth  # noqa: E402

from bench import metrics, workloads  # noqa: E402
from bench.tracing import GcStats, Tracer, layer_targets, op_functions  # noqa: E402

TINY_MODEL = model_mod.ModelConfig(
    channels=4, frames=4, height=5, width=5, proj_dim=4, ttm_hidden=4,
    offset_channels=(4, 4), offset_hidden=4,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return synth.generate_dataset(8, 3, (4, 4, 5, 5), workloads.MISALIGNMENT, seed=3)


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert e2e == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert layers == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert ("setup_s", "s", "lower") in e2e
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert doc["paths"] == ["bench"]


def test_tracer_reports_every_per_layer_metric_and_changes_nothing(tiny_dataset):
    untraced = workloads.run_loop(workloads.Trainer(tiny_dataset, TINY_MODEL, seed=1), 0.0, 3)
    tracer = Tracer()
    with tracer.installed():
        traced = workloads.run_loop(workloads.Trainer(tiny_dataset, TINY_MODEL, seed=1), 0.0, 3)
    assert traced.losses == untraced.losses
    values = workloads.layer_values(tracer, traced, untraced, GcStats())
    assert set(values) == {m.name for m in metrics.PER_LAYER}
    assert values["autodiff.tape.entries"] == untraced.entries
    assert values["autodiff.conv3d.calls"] == 2
    assert values["acm.tc.calls"] == values["metric.distance.calls"] == 25
    assert values["autodiff.conv3d.gflop"] > 0 and values["autodiff.conv3d.bwd_ms"] > 0


def test_workload_seed_changes_sampled_episodes():
    first, second = workloads.make_dataset(0), workloads.make_dataset(1)
    cfg0, cfg1 = workloads.train_config(0), workloads.train_config(1)

    def features(episode):
        return np.stack([v.feature for v in episode.query])

    _, _, a = workloads.train_episode(first, cfg0, 0)
    _, _, again = workloads.train_episode(first, cfg0, 0)
    _, _, b = workloads.train_episode(second, cfg1, 0)
    assert np.array_equal(features(a), features(again))
    assert not np.array_equal(features(a), features(b))
    _, ea = workloads.eval_episode(first, 0, 0)
    _, eb = workloads.eval_episode(second, 1, 0)
    assert not np.array_equal(features(ea), features(eb))


def test_tracer_restores_original_functions():
    owners = [(owner, attr) for owner, attr, _ in layer_targets()]
    owners += [(ta2n.autodiff, name) for name in op_functions()]
    owners += [(ta2n.autodiff.Tape, "record"), (multiprocessing.pool.Pool, "map")]
    before = [vars(owner)[attr] for owner, attr in owners]
    callbacks = list(gc.callbacks)
    with pytest.raises(RuntimeError):
        with Tracer().installed(), GcStats().watching():
            assert all(vars(o)[a] is not f for (o, a), f in zip(owners, before))
            raise RuntimeError("body failed")
    assert all(vars(o)[a] is f for (o, a), f in zip(owners, before))
    assert gc.callbacks == callbacks


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_light", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
