"""Spatial resampling: Lanczos downscale for coding, nearest-neighbor upscale after,
both through the one resampler, resample_plane.

Run: python demos/02_resampling.py
"""

from fractions import Fraction

import numpy as np

from rqpipe import LANCZOS3, NEAREST, Frame, lanczos_weight, resample_frame, resample_plane

HALF, TWICE = Fraction(1, 2), Fraction(2, 1)

# The Lanczos kernel: 1 at the center, zero at other integers, gentle
# negative lobes in between (that is what preserves sharpness).
print("lanczos a=3 kernel samples:")
for x in (0.0, 0.5, 1.0, 1.5, 2.5, 3.0):
    print(f"  L({x:3.1f}) = {lanczos_weight(x, 3):+.5f}")

# Downsampling halves each dimension; weights are renormalized per phase,
# so flat regions come through untouched.
flat = np.full((16, 16), 142, np.uint8)
print(f"\nconstant 16x16 plane -> {resample_plane(flat, HALF, LANCZOS3, 8).shape} "
      f"still constant: {(resample_plane(flat, HALF, LANCZOS3, 8) == 142).all()}")

rng = np.random.default_rng(0)
textured = rng.integers(0, 256, (16, 16)).astype(np.uint8)
down = resample_plane(textured, HALF, LANCZOS3, 8)
print(f"textured 16x16 -> 8x8, sample means {textured.mean():.1f} -> {down.mean():.1f}")

# Mirror symmetry is bit-exact: resampling commutes with flipping.
mirrored = resample_plane(textured[:, ::-1], HALF, LANCZOS3, 8)
print(f"mirror-then-downsample == downsample-then-mirror: "
      f"{np.array_equal(mirrored, down[:, ::-1])}")

# Nearest-neighbor upsampling is pure duplication, no arithmetic at all.
tiny = np.array([[10, 20], [30, 40]], np.uint8)
print(f"\nNN upsample of {tiny.tolist()}:")
print(resample_plane(tiny, TWICE, NEAREST, 8))

# Frames resample all planes together; chroma keeps its half-of-luma
# relation automatically.
frame = Frame(
    y=rng.integers(0, 256, (32, 32)).astype(np.uint8),
    cb=rng.integers(0, 256, (16, 16)).astype(np.uint8),
    cr=rng.integers(0, 256, (16, 16)).astype(np.uint8),
)
small = resample_frame(frame, HALF, LANCZOS3, 8)
restored = resample_frame(small, TWICE, NEAREST, 8)
print(f"\nframe 32x32 -> down {small.y.shape}/{small.cb.shape} -> up {restored.y.shape}/{restored.cb.shape}")
