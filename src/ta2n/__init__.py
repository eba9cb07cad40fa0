"""Two-stage action alignment over synthetic spatio-temporal features.

Library layout:

- :mod:`ta2n.autodiff` — reverse-mode tensor core: the tape and the ops the pipeline records
- :mod:`ta2n.container` — the one binary file format (datasets, checkpoints)
- :mod:`ta2n.synth` — synthetic misaligned episode data, persistence
- :mod:`ta2n.ttm` — temporal transform stage (duration alignment)
- :mod:`ta2n.acm` — temporal/spatial coordination stage (evolution alignment)
- :mod:`ta2n.metric` — frame-wise cosine metric, classification, episode loss
- :mod:`ta2n.model` — full network assembly, prototypes and checkpoints
- :mod:`ta2n.engine` — episodic training, evaluation, ablations
"""

__version__ = "0.1.0"
