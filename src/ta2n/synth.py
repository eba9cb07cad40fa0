"""Synthetic episodic "video feature" data with controllable misalignment.

Videos are generated directly in feature space as C,T,H,W blocks: background
noise everywhere, plus a class-specific temporal signature modulating a
class-specific actor patch. Misalignment is injected along three axes:

- duration: the action occupies a random sub-interval of the clip,
- evolution: the action's internal progression is resampled through a random
  monotone piecewise-linear time warp,
- spatial: the actor patch is placed at a jittered centre per frame.

Every video carries its ground truth (interval, centres, warp), so alignment
behaviour can be verified against known answers.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from .autodiff import Array

WARP_KNOTS = 3  # interior knots of the evolution warp
SIGNATURE_LENGTH = 64
TEMPLATE_SIZE = 3
SIGNATURE_COSINE_CEILING = 0.3


def check_count(name: str, value, least: int) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an int, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def check_real(name: str, value) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an int or a float, not a bool:
    the real numbers that numpy and a file's JSON meta both take as they are."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number (int or float), got {value!r}")


@dataclass(frozen=True)
class MisalignmentConfig:
    """Strengths of the three injected misalignment axes plus noise floor."""

    duration_jitter: float = 0.0  # in [0, 1]; spreads start time and length
    evolution_severity: float = 0.0  # >= 0; bounds warp slopes in [1/(1+s), 1+s]
    spatial_jitter: float = 0.0  # in grid cells
    background_noise_scale: float = 0.1

    def validate(self) -> None:
        for name, value in asdict(self).items():
            check_real(name, value)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.duration_jitter > 1.0:
            raise ValueError("duration_jitter must lie in [0, 1]")


@dataclass
class VideoFeature:
    """One generated video plus the ground truth used for verification."""

    feature: Array  # (C, T, H, W)
    label: int
    start: float  # action interval [start, end] in normalized clip time
    end: float
    centers: Array  # (T, 2) actor centre per frame as (x, y)
    warp_knots: Array  # (WARP_KNOTS + 2,) y-values of the evolution warp


@dataclass
class ClassSignature:
    """Canonical evolution curve and actor patch for one class."""

    class_index: int
    signature: Array  # (C, SIGNATURE_LENGTH)
    template: Array  # (C, TEMPLATE_SIZE, TEMPLATE_SIZE)


@dataclass
class Dataset:
    channels: int
    frames: int
    height: int
    width: int
    num_classes: int
    config: MisalignmentConfig
    seed: int
    videos: list[VideoFeature] = field(default_factory=list)

    def split_classes(self, split: str) -> list[int]:
        n_train, n_val, n_test = default_split_counts(self.num_classes)
        ranges = {
            "train": range(0, n_train),
            "val": range(n_train, n_train + n_val),
            "test": range(n_train + n_val, n_train + n_val + n_test),
        }
        if split not in ranges:
            raise ValueError(f"unknown split {split!r}")
        return list(ranges[split])

    def videos_of_class(self, label: int) -> list[VideoFeature]:
        return [v for v in self.videos if v.label == label]

    def dims(self) -> tuple[int, int, int, int]:
        return (self.channels, self.frames, self.height, self.width)


@dataclass
class Episode:
    """One N-way K-shot task with labels re-indexed to 0..N-1."""

    support: list[list[VideoFeature]]  # [class][shot]
    query: list[VideoFeature]
    query_labels: list[int]
    class_ids: list[int]  # episode label -> dataset class id


# ---------------------------------------------------------------------------
# generation


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _sample_warp_knots(rng: np.random.Generator, severity: float) -> Array:
    """Monotone piecewise-linear bijection of [0,1] with bounded slopes."""
    if severity <= 0.0:
        return np.linspace(0.0, 1.0, WARP_KNOTS + 2)
    lo, hi = 1.0 / (1.0 + severity), 1.0 + severity
    segments = WARP_KNOTS + 1
    for _ in range(200):
        slopes = rng.uniform(lo, hi, segments)
        slopes = slopes / slopes.mean()  # total rise must be exactly 1
        if np.all(slopes >= lo - 1e-12) and np.all(slopes <= hi + 1e-12):
            ys = np.concatenate([[0.0], np.cumsum(slopes) / segments])
            ys[-1] = 1.0
            return ys
    raise RuntimeError("warp sampling did not converge; severity too extreme")


def _smooth_curve(rng: np.random.Generator, length: int) -> Array:
    ts = np.linspace(0.0, 1.0, length)
    out = np.zeros(length)
    for freq in (1, 2, 3):
        out += rng.normal(0.0, 1.0) * np.sin(2 * np.pi * freq * ts + rng.uniform(0, 2 * np.pi))
    return out


def make_class_signatures(num_classes: int, channels: int, seed: int) -> list[ClassSignature]:
    """Per-class signatures with pairwise cosine similarity below the ceiling."""
    signatures: list[ClassSignature] = []
    flats: list[Array] = []
    for c in range(num_classes):
        for attempt in range(100):
            rng = _rng(seed, 1, c, attempt)
            sig = np.stack([_smooth_curve(rng, SIGNATURE_LENGTH) for _ in range(channels)])
            sig /= np.sqrt((sig**2).mean()) + 1e-12
            flat = sig.ravel()
            flat_n = flat / np.linalg.norm(flat)
            if all(abs(flat_n @ other) < SIGNATURE_COSINE_CEILING for other in flats):
                template = _rng(seed, 2, c).uniform(0.5, 1.5, (channels, TEMPLATE_SIZE, TEMPLATE_SIZE))
                signatures.append(ClassSignature(c, sig, template))
                flats.append(flat_n)
                break
        else:
            raise RuntimeError("could not generate sufficiently distinct class signatures")
    return signatures


def _splat_weights(centers: Array, n: int) -> Array:
    """(T, n, TEMPLATE_SIZE) bilinear weights of each template row on the grid.

    Template row ``d`` of frame ``t`` sits at ``centers[t] - (TEMPLATE_SIZE
    - 1) / 2 + d`` and splits between the two grid rows around it. A grid
    row outside ``[0, n)`` gets no weight, so the part of the actor that
    falls off the grid is dropped.
    """
    cells = (centers - (TEMPLATE_SIZE - 1) / 2.0)[:, None, None] + np.arange(TEMPLATE_SIZE)
    lo = np.floor(cells)  # (T, 1, TEMPLATE_SIZE), broadcast against the grid rows
    frac = cells - lo
    grid = np.arange(n)[:, None]
    return (grid == lo) * (1.0 - frac) + (grid == lo + 1) * frac


def _render_actor(
    sig: ClassSignature,
    dims: tuple[int, int, int, int],
    start: float,
    end: float,
    knots: Array,
    centers: Array,
) -> Array:
    """The noise-free actor signal of one video, rendered from its ground truth.

    A frame at normalized time ``t`` in ``[start, end]`` reads the class
    signature, linearly interpolated, at the evolution warp of its phase in
    the action; that per-channel amplitude scales the class template, which
    is splatted bilinearly at the frame's centre as ``rows @ patch @ cols.T``.
    Frames outside the action are zero.
    """
    channels, frames, height, width = dims
    t_norm = np.arange(frames) / max(frames - 1, 1)
    active = (start - 1e-12 <= t_norm) & (t_norm <= end + 1e-12)
    phase = (t_norm[active] - start) / (end - start)
    evo = np.interp(phase, np.linspace(0.0, 1.0, len(knots)), knots)
    idx = evo * (sig.signature.shape[1] - 1)
    lo = np.floor(idx).astype(int)
    hi = np.minimum(lo + 1, sig.signature.shape[1] - 1)
    frac = idx - lo
    amp = (1 - frac) * sig.signature[:, lo] + frac * sig.signature[:, hi]  # (C, T_active)
    patches = amp[:, :, None, None] * sig.template[:, None]  # (C, T_active, 3, 3)
    rows = _splat_weights(centers[active, 1], height)
    cols = _splat_weights(centers[active, 0], width)
    out = np.zeros((channels, frames, height, width))
    out[:, active] = rows @ patches @ cols.transpose(0, 2, 1)
    return out


def generate_video(
    sig: ClassSignature,
    dims: tuple[int, int, int, int],
    config: MisalignmentConfig,
    seed: int,
    video_id: int,
) -> VideoFeature:
    channels, frames, height, width = dims
    rng_sig = _rng(seed, 3, video_id, 0)
    rng_noise = _rng(seed, 3, video_id, 1)

    length = 1.0 - config.duration_jitter * rng_sig.uniform() * 0.75
    start = rng_sig.uniform() * (1.0 - length)
    end = start + length
    knots = _sample_warp_knots(rng_sig, config.evolution_severity)

    base = rng_sig.uniform(-config.spatial_jitter, config.spatial_jitter, 2)
    wander = rng_sig.uniform(
        -config.spatial_jitter / 4.0, config.spatial_jitter / 4.0, (frames, 2)
    )
    grid_centre = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    centers = np.clip(
        grid_centre + base + wander, [0.0, 0.0], [width - 1.0, height - 1.0]
    )

    feature = rng_noise.normal(0.0, config.background_noise_scale, (channels, frames, height, width))
    feature += _render_actor(sig, dims, start, end, knots, centers)
    return VideoFeature(
        feature=feature,
        label=sig.class_index,
        start=start,
        end=end,
        centers=centers,
        warp_knots=knots,
    )


def default_split_counts(num_classes: int) -> tuple[int, int, int]:
    """Train, val and test class counts; ``ValueError`` below 6 classes."""
    if num_classes < 6:
        raise ValueError(f"need at least 6 classes to carve out usable splits, got {num_classes}")
    n_test = max(2, round(num_classes * 0.3))
    n_val = max(1, round(num_classes * 0.15))
    return num_classes - n_test - n_val, n_val, n_test


def _check_layout(
    num_classes: int, dims: tuple[int, int, int, int], config: MisalignmentConfig, seed: int
) -> None:
    """``ValueError`` unless :func:`generate_dataset` can build ``num_classes``
    classes of (C, T, H, W) ``dims`` videos under ``config`` from ``seed``."""
    config.validate()
    check_count("seed", seed, 0)
    default_split_counts(num_classes)
    if min(dims) <= 0:
        raise ValueError(f"dims must be positive, got {list(dims)}")
    height, width = dims[2:]
    if TEMPLATE_SIZE > height or TEMPLATE_SIZE > width:
        raise ValueError(
            f"actor template {TEMPLATE_SIZE}x{TEMPLATE_SIZE} does not fit a {height}x{width} grid"
        )


def generate_dataset(
    num_classes: int,
    videos_per_class: int,
    dims: tuple[int, int, int, int],
    config: MisalignmentConfig,
    seed: int,
) -> Dataset:
    """Deterministic dataset of misaligned videos with disjoint class splits."""
    _check_layout(num_classes, dims, config, seed)
    check_count("videos_per_class", videos_per_class, 0)
    channels, frames, height, width = dims
    signatures = make_class_signatures(num_classes, channels, seed)
    videos = []
    vid = 0
    for sig in signatures:
        for _ in range(videos_per_class):
            videos.append(generate_video(sig, dims, config, seed, vid))
            vid += 1
    return Dataset(
        channels=channels,
        frames=frames,
        height=height,
        width=width,
        num_classes=num_classes,
        config=config,
        seed=seed,
        videos=videos,
    )


# ---------------------------------------------------------------------------
# episodes


def sample_episode(
    dataset: Dataset,
    split: str,
    n_way: int,
    k_shot: int,
    n_query: int,
    seed: int,
) -> Episode:
    """Draw one episode: N classes, K support + Q query videos per class.

    Support and query sets are disjoint and labels are re-indexed to the
    episode's 0..N-1 range. Raises ``ValueError`` unless N, K and Q are ints
    of at least 1, or when the split or a class has too few classes or videos.
    """
    for name, value in (("n_way", n_way), ("k_shot", k_shot), ("n_query", n_query)):
        check_count(name, value, 1)
    class_ids = dataset.split_classes(split)
    if len(class_ids) < n_way:
        raise ValueError(f"split {split!r} has {len(class_ids)} classes, need {n_way}")
    rng = _rng(dataset.seed, 4, seed)
    chosen = [class_ids[i] for i in rng.choice(len(class_ids), size=n_way, replace=False)]
    support: list[list[VideoFeature]] = []
    query: list[VideoFeature] = []
    query_labels: list[int] = []
    for episode_label, class_id in enumerate(chosen):
        vids = dataset.videos_of_class(class_id)
        if len(vids) < k_shot + n_query:
            raise ValueError(
                f"class {class_id} has {len(vids)} videos, need {k_shot + n_query}"
            )
        picks = rng.choice(len(vids), size=k_shot + n_query, replace=False)
        support.append([vids[i] for i in picks[:k_shot]])
        for i in picks[k_shot:]:
            query.append(vids[i])
            query_labels.append(episode_label)
    return Episode(support, query, query_labels, chosen)


# ---------------------------------------------------------------------------
# persistence


def _array_shapes(n_videos: int, dims: tuple[int, int, int, int]) -> dict[str, tuple[int, ...]]:
    """Name and shape of each per-video field, stacked over the videos of a file."""
    return {
        "features": (n_videos, *dims),
        "centers": (n_videos, dims[1], 2),
        "warp_knots": (n_videos, WARP_KNOTS + 2),
        "labels": (n_videos,),
        "spans": (n_videos, 2),  # (start, end)
    }


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Atomic dump into a dataset container, one stacked array per video field."""
    videos = dataset.videos
    meta = {
        "videos": len(videos),
        "dims": list(dataset.dims()),
        "num_classes": dataset.num_classes,
        "seed": dataset.seed,
        "config": asdict(dataset.config),
    }
    rows = {
        "features": [v.feature for v in videos],
        "centers": [v.centers for v in videos],
        "warp_knots": [v.warp_knots for v in videos],
        "labels": [v.label for v in videos],
        "spans": [(v.start, v.end) for v in videos],
    }
    arrays = {
        name: np.array(rows[name], dtype=np.float64).reshape(shape)  # reshape: zero videos
        for name, shape in _array_shapes(len(videos), dataset.dims()).items()
    }
    container.save(path, container.DATASET, meta, arrays)


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Inverse of :func:`save_dataset`. Past the container's own rules, meta or
    ground truth that :func:`generate_dataset` could not have written raises a
    ``ContainerError``."""
    meta, arrays = container.load(path, container.DATASET)
    try:
        n, dims = meta["videos"], meta["dims"]
        check_count("videos", n, 0)
        channels, frames, height, width = dims
        for d in dims:
            check_count("dims", d, 1)
        check_count("num_classes", meta["num_classes"], 0)  # _check_layout checks the seed
        dataset = Dataset(
            channels=channels,
            frames=frames,
            height=height,
            width=width,
            num_classes=meta["num_classes"],
            config=MisalignmentConfig(**meta["config"]),
            seed=meta["seed"],
        )
        _check_layout(dataset.num_classes, dataset.dims(), dataset.config, dataset.seed)
    except (KeyError, TypeError, ValueError) as e:
        raise container.ContainerError(f"malformed dataset meta: {e}") from e
    container.expect_shapes(arrays, _array_shapes(n, dataset.dims()))
    features, centers, knots = arrays["features"], arrays["centers"], arrays["warp_knots"]
    labels, spans = arrays["labels"], arrays["spans"]
    if not np.all((labels >= 0) & (labels < dataset.num_classes) & (labels == np.floor(labels))):
        raise container.ContainerError(
            f"dataset labels must be class ids in [0, {dataset.num_classes})"
        )
    if not np.all((0.0 <= spans[:, 0]) & (spans[:, 0] < spans[:, 1]) & (spans[:, 1] <= 1.0)):
        raise container.ContainerError("dataset spans must satisfy 0 <= start < end <= 1")
    if not np.all((centers >= 0.0) & (centers <= [width - 1.0, height - 1.0])):
        raise container.ContainerError(
            f"dataset centres must lie in [0, {width - 1}] x [0, {height - 1}]"
        )
    # _sample_warp_knots writes knots from exactly 0 to exactly 1 whose segment
    # slopes lie in [1/(1+s), 1+s], up to the rounding of its cumulative sum
    severity = dataset.config.evolution_severity
    slopes = np.diff(knots, axis=1) * (WARP_KNOTS + 1)
    if not (
        np.all(knots[:, 0] == 0.0) and np.all(knots[:, -1] == 1.0)
        and np.all(slopes >= 1.0 / (1.0 + severity) - 1e-9) and np.all(slopes <= 1.0 + severity + 1e-9)
    ):
        raise container.ContainerError(
            f"dataset warp knots must rise from 0 to 1 with slopes in [1/(1+s), 1+s], s = {severity}"
        )
    dataset.videos = [
        VideoFeature(
            features[i], int(labels[i]), float(spans[i, 0]), float(spans[i, 1]), centers[i], knots[i]
        )
        for i in range(n)
    ]
    return dataset
