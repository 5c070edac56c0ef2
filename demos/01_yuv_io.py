"""Raw YUV sequence IO: specs, byte accounting, and lossless round trips.

Run: python demos/01_yuv_io.py
"""

import tempfile
from pathlib import Path

import numpy as np

from rqpipe import VideoSpec, frame_size_bytes, read_frame, read_sequence, synthetic_sequence, write_sequence

workdir = Path(tempfile.mkdtemp(prefix="rqpipe_demo_"))

# A spec pins everything a headerless raw file cannot say about itself.
spec = VideoSpec(width=96, height=64, bit_depth=10, chroma="420", frame_count=6, label="demo")
print(f"spec: {spec.width}x{spec.height}, {spec.bit_depth}-bit, 4:2:0, {spec.frame_count} frames")
print(f"one frame occupies {frame_size_bytes(spec)} bytes "
      f"(1.5 x {spec.width} x {spec.height} x 2-byte container words)")

frames = synthetic_sequence(spec, seed=7)
path = workdir / "demo.yuv"
written = write_sequence(frames, spec, path)
print(f"\nwrote {spec.frame_count} frames -> {written} bytes at {path}")

# Reading back returns bit-identical samples.
back = list(read_sequence(path, spec))
identical = all(
    np.array_equal(pa, pb)
    for a, b in zip(frames, back)
    for pa, pb in zip(a.planes(), b.planes())
)
print(f"round trip bit-exact: {identical}")

# Frames are fixed-size records, so frame k can be read without scanning.
frame3 = read_frame(path, spec, 3)
print(f"frame 3 via seek: luma mean {frame3.y.mean():.1f}, "
      f"matches stream read: {np.array_equal(frame3.y, back[3].y)}")

# 10-bit samples live in the low bits of little-endian 16-bit words; a sample
# above 1023 is a SampleRangeError naming the file, frame, plane and sample.
print(f"sample range used: {back[0].y.min()}..{back[0].y.max()} of 0..{spec.max_value}")
