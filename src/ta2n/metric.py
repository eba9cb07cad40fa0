"""Frame-wise cosine metric, classification over classes and the episode loss."""

from __future__ import annotations

from typing import Sequence

from . import autodiff as ad
from .autodiff import Var


def frame_cosine_distance(f: Var, p: Var) -> Var:
    """Sum over frames of (1 - cosine similarity) between d,T columns.

    Range [0, 2T]; scale-invariant per frame. An all-zero column, such as a
    blank frame, has cosine 0 and gradient 0. One ``cosine_distance`` tape
    entry.
    """
    if f.shape != p.shape or len(f.shape) != 2:
        raise ValueError(f"expected matching d,T arrays, got {f.shape} vs {p.shape}")
    return ad.cosine_distance(f, p)


def classify(pairs: Sequence[tuple[Var, Var]]) -> Var:
    """Probabilities over classes, the softmax of negative frame-wise cosine distances.

    ``pairs`` holds one (prototype, query) pair per class; the query may be
    represented differently in each pair, as aligned to that class.
    """
    if len(pairs) < 2:
        raise ValueError("classification needs at least two classes")
    distances = [frame_cosine_distance(q, p) for p, q in pairs]
    return ad.softmax(ad.affine(ad.stack(distances), -1.0), axis=0)


def cross_entropy_loss(per_query_probs: Sequence[Var], labels: Sequence[int]) -> Var:
    """Summed negative log-likelihood over an episode's query set.

    One ``stack`` of the per-query probabilities and one ``nll`` tape entry;
    a label out of range raises ``ValueError``.
    """
    if len(per_query_probs) != len(labels):
        raise ValueError("one label per query expected")
    return ad.nll(ad.stack(per_query_probs), labels)
