"""Spans around calls into the ta2n layers, from the benchmark's side.

The tracer patches public attributes of the ta2n modules with timing
wrappers and puts the originals back on exit; nothing under ``src/`` knows
about it. Each span has a name, a start, an end and a parent (the span open
below it on the stack). A span's self time is its duration minus the time
its child spans cover. Spans are folded into per-name totals as they close,
so memory stays flat over a long run.

Tape ops are timed three ways: the op function's self time is its forward
time, ``Tape.record`` is timed on its own, and the backward closure handed
to ``Tape.record`` is wrapped to time the op's backward.
"""

from __future__ import annotations

import functools
import gc
import math
import multiprocessing.pool
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager

from ta2n import acm, autodiff, engine, metric, model, synth, ttm

from .metrics import OP_MOVES

_clock = time.perf_counter
_OP = "autodiff.op"  # span name shared by every tape-op function


class _Span:
    __slots__ = ("name", "start", "child", "op")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.op = None  # set by Tape.record for op-function spans


def layer_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every layer boundary the benchmark times."""
    return [
        (synth, "generate_dataset", "synth.generate_dataset"),
        (synth, "sample_episode", "synth.sample_episode"),
        (synth, "save_dataset", "synth.save_dataset"),
        (synth, "load_dataset", "synth.load_dataset"),
        (ttm, "localize", "ttm.localize"),
        (ttm, "temporal_affine_warp", "ttm.warp"),
        (acm.TemporalCoordination, "forward", "acm.tc"),
        (acm.OffsetPredictor, "forward", "acm.offset_predictor"),
        (acm, "spatial_coordinate", "acm.spatial_coordinate"),
        (metric, "frame_cosine_distance", "metric.distance"),
        (metric, "cross_entropy_loss", "metric.loss"),
        (model.AlignmentModel, "episode_forward", "model.episode_forward"),
        (model, "save_checkpoint", "model.save_checkpoint"),
        (model, "load_checkpoint", "model.load_checkpoint"),
        (engine.SgdMomentum, "step", "engine.opt_step"),
        (engine, "evaluate", "engine.evaluate"),
        (autodiff.Tape, "backward", "autodiff.tape.backward"),
    ]


def op_functions() -> list[str]:
    """Public functions defined in ``autodiff``: the tape ops and their helpers."""
    return sorted(
        name for name, fn in vars(autodiff).items()
        if callable(fn) and not name.startswith("_") and not isinstance(fn, type)
        and getattr(fn, "__module__", None) == autodiff.__name__
    )


def conv3d_cost(x_shape, w_shape, backward: bool) -> tuple[float, float]:
    """(flop, bytes) of the im2col formulation of one conv3d pass, from shapes.

    With M = B*T*H*W output positions, K = 27*C_in and N = C_out, the forward
    is one M x K by K x N GEMM over a patch matrix P written once and read
    once; the backward is two GEMMs (weight and patch gradients) plus the
    scatter of the patch gradient back onto the input.
    """
    b, c_in, t, h, w = x_shape
    m, k, n = b * t * h * w, 27 * c_in, w_shape[0]
    x = b * c_in * t * h * w
    if backward:
        return 4.0 * m * k * n, 8.0 * (2 * m * n + 3 * m * k + 2 * k * n + x)
    return 2.0 * m * k * n, 8.0 * (x + 2 * m * k + k * n + m * n)


class Tracer:
    """Per-name span totals plus tape-op and dispatch counters."""

    def __init__(self):
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.ops = defaultdict(lambda: [0, 0.0, 0.0, 0])  # op -> calls, fwd s, bwd s, out bytes
        self.entries = 0
        self.conv3d_flop = 0.0
        self.conv3d_bytes = 0.0
        self.pool_maps: list[tuple[int, int]] = []  # (jobs, chunksize) per Pool.map call
        self.first_job = None
        self._stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> _Span:
        span = _Span(name, _clock())
        self._stack.append(span)
        return span

    def _close(self, span: _Span) -> tuple[float, float]:
        dur = _clock() - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += dur
        return dur, dur - span.child

    def _add_layer(self, name: str, dur: float, own: float) -> None:
        row = self.layers[name]
        row[0] += 1
        row[1] += dur
        row[2] += own

    # -- wrappers ----------------------------------------------------------

    def _layer(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_layer(name, *self._close(span))

        return wrapper

    def _op_function(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(_OP)
            try:
                return fn(*args, **kwargs)
            finally:
                _, own = self._close(span)
                self.ops[span.op or "other"][1] += own

        return wrapper

    def _record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def record(tape, op, value, inputs, backward):
            if tracer._stack and tracer._stack[-1].name == _OP:
                tracer._stack[-1].op = op
            span = tracer._open("autodiff.tape.record")
            try:
                out = fn(tape, op, value, inputs, tracer._backward(op, inputs, backward))
            finally:
                tracer._add_layer("autodiff.tape.record", *tracer._close(span))
            row = tracer.ops[op]
            row[0] += 1
            row[3] += out.value.nbytes
            if tape.grad_enabled:
                tracer.entries += 1
            if op == "conv3d":
                tracer._add_conv3d(inputs, backward=False)
            return out

        return record

    def _backward(self, op, inputs, backward):
        def timed(g):
            span = self._open(op)
            try:
                return backward(g)
            finally:
                dur, _ = self._close(span)
                self.ops[op][2] += dur
                if op == "conv3d":
                    self._add_conv3d(inputs, backward=True)

        return timed

    def _add_conv3d(self, inputs, backward: bool) -> None:
        flop, moved = conv3d_cost(inputs[0].shape, inputs[1].shape, backward)
        self.conv3d_flop += flop
        self.conv3d_bytes += moved

    def _pool_map(self, fn):
        @functools.wraps(fn)
        def map_(pool, func, iterable, chunksize=None):
            jobs = list(iterable)
            self.pool_maps.append((len(jobs), chunksize or 1))
            if self.first_job is None and jobs:
                self.first_job = jobs[0]
            return fn(pool, func, jobs, chunksize)

        return map_

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    @contextmanager
    def installed(self, prefixes: tuple[str, ...] = ("",)):
        """Patch every layer whose span name starts with one of ``prefixes``.

        The tape ops and ``Tape.record`` go by the name ``autodiff.op``, and
        ``Pool.map`` dispatch by ``engine.pool_map``. The originals are
        restored on exit, also when the body raises.
        """
        try:
            for owner, attr, name in layer_targets():
                if name.startswith(prefixes):
                    self._patch(owner, attr, functools.partial(self._layer, name))
            if _OP.startswith(prefixes):
                for name in op_functions():
                    self._patch(autodiff, name, self._op_function)
                self._patch(autodiff.Tape, "record", self._record)
            if "engine.pool_map".startswith(prefixes):
                self._patch(multiprocessing.pool.Pool, "map", self._pool_map)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def values(self, episodes: int) -> dict[str, float]:
        """Per-layer metrics: per-episode figures divided by ``episodes``."""
        per_ep = 1.0 / max(episodes, 1)

        def layer(name, field):  # field: 0 calls, 1 total s, 2 self s
            return self.layers[name][field] if name in self.layers else 0.0

        def per_call(name):
            calls = layer(name, 0)
            return layer(name, 1) / calls if calls else 0.0

        out = {
            "autodiff.tape.entries": self.entries * per_ep,
            "autodiff.tape.record_ms": 1e3 * layer("autodiff.tape.record", 2) * per_ep,
            "autodiff.tape.backward_self_ms": 1e3 * layer("autodiff.tape.backward", 2) * per_ep,
        }
        other = [0, 0.0, 0.0, 0]
        for op, row in self.ops.items():
            if op not in OP_MOVES:
                other = [a + b for a, b in zip(other, row)]
        for op in OP_MOVES:
            calls, fwd, bwd, nbytes = other if op == "other" else self.ops.get(op, (0, 0.0, 0.0, 0))
            out[f"autodiff.{op}.calls"] = calls * per_ep
            out[f"autodiff.{op}.fwd_ms"] = 1e3 * fwd * per_ep
            out[f"autodiff.{op}.bwd_ms"] = 1e3 * bwd * per_ep
            out[f"autodiff.{op}.out_mb"] = 1e-6 * nbytes * per_ep
        out["autodiff.conv3d.gflop"] = 1e-9 * self.conv3d_flop * per_ep
        out["autodiff.conv3d.mb_moved"] = 1e-6 * self.conv3d_bytes * per_ep
        for name, key in (
            ("acm.offset_predictor", "acm.offset_predictor.ms"),
            ("acm.spatial_coordinate", "acm.spatial_coordinate.ms"),
            ("acm.tc", "acm.tc.ms"),
            ("ttm.localize", "ttm.localize.ms"),
            ("ttm.warp", "ttm.warp.ms"),
            ("metric.distance", "metric.distance.ms"),
            ("metric.loss", "metric.loss.ms"),
            ("model.episode_forward", "model.episode_forward.ms"),
            ("synth.sample_episode", "synth.sample_episode.ms"),
            ("engine.opt_step", "engine.opt_step.ms"),
        ):
            out[key] = 1e3 * layer(name, 1) * per_ep
        for name in ("acm.spatial_coordinate", "acm.tc", "ttm.localize", "metric.distance"):
            out[f"{name}.calls"] = layer(name, 0) * per_ep
        out["model.save_checkpoint.ms"] = 1e3 * per_call("model.save_checkpoint")
        out["model.load_checkpoint.ms"] = 1e3 * per_call("model.load_checkpoint")
        for name in ("generate_dataset", "save_dataset", "load_dataset"):
            out[f"synth.{name}.s"] = per_call(f"synth.{name}")
        out["engine.evaluate.s"] = per_call("engine.evaluate")
        out["engine.eval_job.mb"] = (
            1e-6 * len(pickle.dumps(self.first_job)) if self.first_job is not None else 0.0
        )
        out["engine.eval_chunks"] = (
            sum(math.ceil(n / c) for n, c in self.pool_maps) / len(self.pool_maps)
            if self.pool_maps else 0.0
        )
        return out

    def self_times(self) -> list[tuple[str, int, float, float]]:
        """(span, calls, total s, self s) for every layer span, largest self time first."""
        rows = [(name, *row) for name, row in self.layers.items()]
        for op, (calls, fwd, bwd, _) in self.ops.items():
            rows.append((f"autodiff.{op}.fwd", calls, fwd, fwd))
            if bwd:
                rows.append((f"autodiff.{op}.bwd", calls, bwd, bwd))
        return sorted(rows, key=lambda r: -r[3])


class GcStats:
    """Collections and pause time seen through ``gc.callbacks``; never triggers one."""

    def __init__(self):
        self.gen2_collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = _clock()
            return
        self.pause_s += _clock() - self._start
        if info["generation"] == 2:
            self.gen2_collections += 1

    @contextmanager
    def watching(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
