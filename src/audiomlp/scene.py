"""Reduce per-frame timestamp embeddings to one fixed-size scene vector.

A clip's encoder output is (frames, dim); a scene embedding is the same
information squeezed to (SCENE_FRAMES, dim) and flattened time-major, so
the default 98x64 timestamps become a 1024-dim vector (16 frames x 64).

Three reduction algorithms are provided. "mean" averages contiguous frame
groups. "single" runs one linear interpolation pass straight to the
target length. "iterative" repeatedly halves the frame count (never
dropping below the target) so each pass only ever blends neighbors,
which behaves like a crude anti-aliasing filter; thin temporal structure
survives it far better than a single long-stride pass.
"""

from __future__ import annotations

import numpy as np

SCENE_FRAMES = 16

ALGORITHMS = ("mean", "single", "iterative")


def linear_interp_time(x: np.ndarray, target_len: int) -> np.ndarray:
    """Resize axis 0 of x to target_len by linear interpolation.

    Sample centers use the half-offset convention: output j reads source
    position (j + 0.5) * (n / target_len) - 0.5, clamped to [0, n - 1].
    target_len == n returns an exact copy.
    """
    x = np.asarray(x)
    if x.ndim < 1 or x.shape[0] < 1:
        raise ValueError("input must have at least one frame")
    if target_len < 1:
        raise ValueError("target_len must be positive")
    n = x.shape[0]
    if target_len == n:
        return x.copy()
    centers = (np.arange(target_len) + 0.5) * (n / target_len) - 0.5
    centers = np.clip(centers, 0.0, float(n - 1))
    lo = np.floor(centers).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = centers - lo
    if x.dtype.kind == "f":
        frac = frac.astype(x.dtype)
    shape = (target_len,) + (1,) * (x.ndim - 1)
    frac = frac.reshape(shape)
    return x[lo] * (1.0 - frac) + x[hi] * frac


def num_interp_steps(n_frames: int, scene_frames: int) -> int:
    """Halving passes needed to bring n_frames down to scene_frames.

    Computed by integer ceiling-halving, which matches
    ceil(log2(n_frames / scene_frames)) without any float logs.
    """
    if n_frames < 1 or scene_frames < 1:
        raise ValueError("frame counts must be positive")
    steps, n = 0, n_frames
    while n > scene_frames:
        n = (n + 1) // 2
        steps += 1
    return steps


def reduce_mean(timestamps: np.ndarray, scene_frames: int = SCENE_FRAMES) -> np.ndarray:
    """Average contiguous frame groups; group j is rows [jN/M, (j+1)N/M)."""
    n = timestamps.shape[0]
    if n < scene_frames:
        raise ValueError(
            f"cannot mean-pool {n} frames into {scene_frames} groups"
        )
    bounds = [(j * n) // scene_frames for j in range(scene_frames + 1)]
    return np.stack(
        [timestamps[bounds[j] : bounds[j + 1]].mean(axis=0) for j in range(scene_frames)]
    )


def reduce_single(timestamps: np.ndarray, scene_frames: int = SCENE_FRAMES) -> np.ndarray:
    """One interpolation pass straight to scene_frames."""
    return linear_interp_time(timestamps, scene_frames)


def reduce_iterative(timestamps: np.ndarray, scene_frames: int = SCENE_FRAMES) -> np.ndarray:
    """Halve the frame count per pass until scene_frames is reached.

    Shorter-than-target input is upsampled in a single pass; equal-length
    input is returned as-is (copied).
    """
    n = timestamps.shape[0]
    if n <= scene_frames:
        return linear_interp_time(timestamps, scene_frames)
    out, m = timestamps, n
    while m > scene_frames:
        m = max(scene_frames, (m + 1) // 2)
        out = linear_interp_time(out, m)
    return out


_REDUCERS = {
    "mean": reduce_mean,
    "single": reduce_single,
    "iterative": reduce_iterative,
}


def scene_embedding(timestamps: np.ndarray, algorithm: str = "iterative") -> np.ndarray:
    """Flatten a (frames, dim) matrix to a (SCENE_FRAMES * dim,) vector.

    Flattening is time-major: the first dim entries belong to scene frame
    0. With the default encoder (98x64) and 16 scene frames the result is
    the 1024-dim scene embedding.
    """
    timestamps = np.asarray(timestamps)
    if timestamps.ndim != 2:
        raise ValueError(f"timestamps must be 2-D, got shape {timestamps.shape}")
    try:
        reducer = _REDUCERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}"
        ) from None
    reduced = reducer(timestamps, SCENE_FRAMES)
    return np.ascontiguousarray(reduced).reshape(-1)
