"""Gradient checks of tape backward passes against central differences.

Test tooling, not part of the package: ``ta2n`` ships only the pipeline.
:func:`finite_diff_gradcheck` probes sampled parameter coordinates one at a
time; :func:`directional_gradcheck` probes whole random directions through
every parameter at once, so one check covers a full episode loss in a few
forward passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ta2n.autodiff import Parameter, Tape, Var


@dataclass
class GradCheckReport:
    """Outcome of comparing backward gradients with central differences."""

    max_rel_err: float = 0.0
    checked: int = 0
    failures: list[tuple[str, int, float]] = field(default_factory=list)
    tolerance: float = 1e-4
    # per checked coordinate: (parameter, flat index, error at the first
    # step, ladder rung it stopped at; rung 0 is the first step)
    ladder: list[tuple[str, int, float, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked > 0

    @property
    def first_rung_max_err(self) -> float:
        """Largest error at the first step: the margin ``max_rel_err`` hides."""
        return max((err for _, _, err, _ in self.ladder), default=0.0)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lower = sum(1 for *_, rung in self.ladder if rung > 0)
        deepest = max((rung for *_, rung in self.ladder), default=0)
        return (
            f"{status}: {self.checked} coordinates, max rel err "
            f"{self.max_rel_err:.3e} (tol {self.tolerance:.1e}); first step max "
            f"{self.first_rung_max_err:.3e}, {lower} stopped lower (deepest rung {deepest})"
        )


GRADCHECK_STEP_FLOOR = 1e-8


def _rel_err(numeric: float, analytic: float) -> float:
    denom = max(abs(numeric), abs(analytic))
    if denom < 1e-8:
        return abs(numeric - analytic)
    return abs(numeric - analytic) / denom


def _analytic_pass(fn: Callable[[Tape], Var], params: Sequence[Parameter]) -> None:
    """Run ``fn`` on a recording tape and leave d(fn)/d(param) in every ``p.grad``."""
    for p in params:
        p.zero_grad()
    tape = Tape(grad=True)
    loss = fn(tape)
    if not math.isfinite(float(loss.value)):
        raise FloatingPointError("gradcheck: objective is not finite")
    tape.backward(loss)


def _value_at(fn: Callable[[Tape], Var]) -> float:
    v = float(fn(Tape(grad=False)).value)
    if not math.isfinite(v):
        raise FloatingPointError("gradcheck: objective is not finite")
    return v


def _ladder(slope: Callable[[float], float], analytic: float, step: float, tolerance: float):
    """(first error, last error, rung) of central differences down the step ladder.

    ``slope(h)`` is the central difference at step ``h``. The ladder starts
    at ``step`` and divides by 4 while the step stays at or above
    ``GRADCHECK_STEP_FLOOR``, stopping at the first rung within ``tolerance``.
    """
    h, rung = step, 0
    while True:
        err = _rel_err(slope(h), analytic)
        if rung == 0:
            first_err = err
        if err <= tolerance or h / 4.0 < GRADCHECK_STEP_FLOOR:
            return first_err, err, rung
        h /= 4.0
        rung += 1


def _add_result(report: GradCheckReport, name: str, index: int, result) -> None:
    first_err, err, rung = result
    report.checked += 1
    report.ladder.append((name, index, first_err, rung))
    report.max_rel_err = max(report.max_rel_err, err)
    if err > report.tolerance:
        report.failures.append((name, index, err))


def finite_diff_gradcheck(
    fn: Callable[[Tape], Var],
    params: Sequence[Parameter],
    *,
    step: float = 1e-3,
    tolerance: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_coords_per_param: int = 8,
) -> GradCheckReport:
    """Check backward gradients of a scalar function against central differences.

    ``fn`` must be deterministic: called with a recording tape once to obtain
    analytic gradients, then forward-only at perturbed parameter values. Each
    sampled coordinate is probed down a ladder of steps that starts at
    ``step`` and divides by 4 while the step stays at or above
    ``GRADCHECK_STEP_FLOOR``; the first step whose central difference agrees
    with backward within ``tolerance`` (relative error, or absolute error
    when both estimates are below 1e-8) passes the coordinate, and the
    smallest step's error is recorded otherwise. The report also keeps each
    coordinate's error at the first step and the rung it stopped at, so a
    pass that needed a smaller step, or passed near the tolerance, shows. A
    subgradient kink close to the evaluation point is thus stepped under
    rather than straddled, while a backward that is wrong stays wrong at
    every rung.

    A point sitting exactly on a kink (a ReLU at 0, a max pool's tie) has
    no central difference that matches a subgradient at any step. Moving the
    evaluation point off such a kink is the caller's job; the TTM, SC and
    full-model checks do it by nudging the zero-initialised heads.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng or np.random.default_rng(0)
    _analytic_pass(fn, params)

    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        n = p.value.size
        k = min(max_coords_per_param, n)
        coords = rng.choice(n, size=k, replace=False) if n > k else np.arange(n)
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for c in coords:
            orig = float(flat[c])

            def slope(h):
                flat[c] = orig + h
                up = _value_at(fn)
                flat[c] = orig - h
                down = _value_at(fn)
                flat[c] = orig
                return (up - down) / (2.0 * h)

            _add_result(report, p.name, int(c), _ladder(slope, float(gflat[c]), step, tolerance))
    return report


def directional_gradcheck(
    fn: Callable[[Tape], Var],
    params: Sequence[Parameter],
    *,
    directions: int = 2,
    step: float = 1e-3,
    tolerance: float = 1e-4,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check the directional derivative J·v of a scalar function along random directions.

    Each direction ``v`` draws a standard normal entry for every coordinate
    of every parameter and is scaled to unit norm over all of them. Backward
    gives ``J·v = sum_p <grad_p, v_p>``; central differences move every
    parameter at once, to ``theta ± h v``, down the same step ladder as
    :func:`finite_diff_gradcheck`. A wrong backward anywhere in ``fn`` moves
    ``J·v`` for almost every ``v``, so a few directions cover what the
    per-coordinate check samples a few coordinates of. Each report entry is
    named ``"direction"`` and indexed by the direction's number.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng or np.random.default_rng(0)
    _analytic_pass(fn, params)
    grads = [p.grad.copy() for p in params]
    origs = [p.value.copy() for p in params]

    report = GradCheckReport(tolerance=tolerance)
    for k in range(directions):
        v = [rng.standard_normal(p.value.shape) for p in params]
        norm = math.sqrt(sum(float((d * d).sum()) for d in v))
        v = [d / norm for d in v]
        analytic = sum(float((g * d).sum()) for g, d in zip(grads, v))

        def shifted(h):
            for p, o, d in zip(params, origs, v):
                p.value[...] = o + h * d
            return _value_at(fn)

        def slope(h):
            try:
                return (shifted(h) - shifted(-h)) / (2.0 * h)
            finally:
                for p, o in zip(params, origs):
                    p.value[...] = o

        _add_result(report, "direction", k, _ladder(slope, analytic, step, tolerance))
    return report
