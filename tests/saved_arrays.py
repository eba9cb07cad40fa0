"""The arrays a tape keeps alive for its backward pass.

Test tooling: :func:`saved_arrays` walks the closure cells of every entry's
backward function, into nested functions, tuples, lists and the values of
captured :class:`~ta2n.autodiff.Var` handles, and returns each distinct
buffer once. A view keeps its whole base buffer alive, so each array is
resolved to the base that owns its memory before it is counted.
"""

from __future__ import annotations

import numpy as np

from ta2n.autodiff import Tape, Var


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def saved_arrays(tape: Tape) -> list[np.ndarray]:
    """The distinct buffers held by ``tape``'s backward closures, largest first."""
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = [e.backward for e in tape.entries if e.backward is not None]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = _owner(obj)
            found[id(base)] = base
        elif isinstance(obj, Var):
            stack.append(obj.value)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return sorted(found.values(), key=lambda a: a.nbytes, reverse=True)
