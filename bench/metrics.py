"""The benchmark's metric model: names, units, and what each layer metric should move.

``BENCHMARK.json`` repeats the names, units and directions of these tables;
``bench/test_bench.py`` keeps the two in step. The ``moves`` column is the
prediction a later change is judged against: a change to one layer should
move the named end-to-end metric on the named workload, and leave the other
workloads unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("train_full", "train_light", "eval_pool")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: tuple[tuple[str, str], ...] = ()  # (workload, end-to-end metric)
    note: str = ""


END_TO_END = (
    Metric("step_ms.p50", "ms", "lower",
           note="median step: train = sample+forward+loss+backward+SGD; eval_pool = serial forward-only episode"),
    Metric("step_ms.p90", "ms", "lower", note="90th percentile of the same steps"),
    Metric("episodes_per_s", "1/s", "higher",
           note="train: steps over the timed loop; eval_pool: median of engine.evaluate calls, pool start-up included"),
    Metric("setup_s", "s", "lower", note="median of four set-ups per run, two before and two after the timed phase"),
    Metric("peak_rss_mb", "MB", "lower", note="max ru_maxrss of the workload process and its pool children"),
)

FULL_STEP = (("train_full", "step_ms.p50"),)
LIGHT_STEP = (("train_light", "step_ms.p50"),)
TRAIN_STEPS = FULL_STEP + LIGHT_STEP
EVAL_RATE = (("eval_pool", "episodes_per_s"),)
EVAL_SETUP = (("eval_pool", "setup_s"),)

# Tape ops reported on their own; every other recorded op is summed into
# ``autodiff.other``. ``offset_masks`` and ``concat`` only run inside spatial
# coordination, so they can only show on ``train_full``.
OP_MOVES = {
    "conv3d": FULL_STEP,
    "batchnorm_train": FULL_STEP,
    "batchnorm_eval": EVAL_RATE,
    "max_pool_spatial2": FULL_STEP,
    "global_max_pool_spatial": FULL_STEP,
    "offset_masks": FULL_STEP,
    "mix_time": LIGHT_STEP,
    "time_linear_sample": LIGHT_STEP,
    "channel_linear": LIGHT_STEP,
    "concat": FULL_STEP,
    "take": LIGHT_STEP,
    "softmax": LIGHT_STEP,
    "other": LIGHT_STEP,
}
OP_FIELDS = (
    ("calls", "count/episode"),
    ("fwd_ms", "ms/episode"),
    ("bwd_ms", "ms/episode"),
    ("out_mb", "MB/episode"),
)


def _layer_metrics() -> tuple[Metric, ...]:
    m = Metric
    rows = [
        m("autodiff.tape.entries", "count/episode", "lower", LIGHT_STEP + FULL_STEP, "exact"),
        m("autodiff.tape.record_ms", "ms/episode", "lower", LIGHT_STEP, "self time in Tape.record"),
        m("autodiff.tape.backward_self_ms", "ms/episode", "lower", LIGHT_STEP,
          "Tape.backward minus the per-entry backward closures"),
    ]
    for op, moves in OP_MOVES.items():
        for field, unit in OP_FIELDS:
            rows.append(m(f"autodiff.{op}.{field}", unit, "lower", moves))
    rows += [
        m("autodiff.conv3d.gflop", "GFLOP/episode", "lower", FULL_STEP,
          "computed from shapes: GEMM flops of the forward passes and of the backward passes that ran"),
        m("autodiff.conv3d.mb_moved", "MB/episode", "lower", FULL_STEP,
          "computed from shapes: im2col GEMM operand traffic"),
        m("acm.offset_predictor.ms", "ms/episode", "lower", FULL_STEP + EVAL_RATE),
        m("acm.spatial_coordinate.calls", "count/episode", "lower", FULL_STEP),
        m("acm.spatial_coordinate.ms", "ms/episode", "lower", FULL_STEP),
        m("acm.tc.calls", "count/episode", "lower", LIGHT_STEP),
        m("acm.tc.ms", "ms/episode", "lower", LIGHT_STEP),
        m("ttm.localize.calls", "count/episode", "lower", LIGHT_STEP),
        m("ttm.localize.ms", "ms/episode", "lower", LIGHT_STEP),
        m("ttm.warp.ms", "ms/episode", "lower", LIGHT_STEP),
        m("metric.distance.calls", "count/episode", "lower", LIGHT_STEP),
        m("metric.distance.ms", "ms/episode", "lower", LIGHT_STEP),
        m("metric.loss.ms", "ms/episode", "lower", LIGHT_STEP),
        m("model.episode_forward.ms", "ms/episode", "lower", TRAIN_STEPS + EVAL_RATE),
        m("model.save_checkpoint.ms", "ms/call", "lower", EVAL_SETUP),
        m("model.load_checkpoint.ms", "ms/call", "lower", EVAL_SETUP),
        m("model.checkpoint.mb", "MB", "lower", EVAL_SETUP, "exact file size"),
        m("synth.generate_dataset.s", "s/call", "lower",
          (("train_full", "setup_s"), ("train_light", "setup_s"), ("eval_pool", "setup_s"))),
        m("synth.sample_episode.ms", "ms/episode", "lower", TRAIN_STEPS),
        m("synth.save_dataset.s", "s/call", "lower", EVAL_SETUP),
        m("synth.load_dataset.s", "s/call", "lower", EVAL_SETUP),
        m("synth.dataset.mb", "MB", "lower", EVAL_SETUP, "exact file size"),
        m("engine.opt_step.ms", "ms/episode", "lower", TRAIN_STEPS),
        m("engine.evaluate.s", "s/call", "lower", EVAL_RATE, "parent side, workers=2"),
        m("engine.eval_job.mb", "MB", "lower", EVAL_RATE, "exact: len(pickle.dumps(job)) of one job"),
        m("engine.eval_chunks", "count/call", "lower", EVAL_RATE, "exact: chunks pool.map dispatches"),
        m("runtime.gc.gen2_collections", "count/episode", "lower",
          (("train_full", "peak_rss_mb"), ("train_full", "step_ms.p90")), "untraced steps"),
        m("runtime.gc.pause_ms", "ms/episode", "lower",
          (("train_full", "peak_rss_mb"), ("train_full", "step_ms.p90")), "all generations, untraced steps"),
        m("trace.overhead_pct", "%", "lower", (),
          "traced step p50 over untraced step p50, minus 1"),
    ]
    return tuple(rows)


PER_LAYER = _layer_metrics()
