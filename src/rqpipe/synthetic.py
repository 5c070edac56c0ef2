"""Synthetic sequences for demos and hermetic tests.

Compressible moving content: smooth gradients plus drifting blobs and a
little seeded noise, so rate-quality behavior resembles real video
without shipping any.
"""

from __future__ import annotations

import numpy as np

from .frame_io import Frame, VideoSpec


def synthetic_plane(width, height, t, max_value, rng) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    base = 0.5 + 0.25 * np.sin(2 * np.pi * (xx / width + 0.03 * t)) \
        + 0.15 * np.cos(2 * np.pi * (yy / height - 0.02 * t))
    cx = width * (0.5 + 0.3 * np.sin(0.2 * t))
    cy = height * (0.5 + 0.3 * np.cos(0.15 * t))
    sigma = 0.12 * min(width, height) + 1.0
    blob = 0.35 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
    noise = rng.normal(0.0, 0.01, (height, width))
    return np.clip((base + blob + noise) * max_value, 0, max_value)


def synthetic_sequence(spec: VideoSpec, seed: int = 0) -> list[Frame]:
    """Generate spec.frame_count frames of moving synthetic content."""
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(spec.frame_count):
        # luma, then each chroma plane at a phase of its own
        planes = (
            synthetic_plane(w, h, t + phase, spec.max_value, rng)
            for (h, w), phase in zip(spec.plane_shapes, (0, 31, 67))
        )
        frames.append(Frame(*(np.floor(p + 0.5).astype(spec.dtype) for p in planes)))
    return frames
