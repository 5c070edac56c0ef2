"""Raw planar YUV sequence reader and writer.

Sequences are headerless planar files. Each frame stores the luma plane
row-major, followed by Cb then Cr at half resolution for 4:2:0, or luma
only for monochrome (used to carry depth maps). 8-bit samples occupy one
byte; 10-bit samples occupy the low 10 bits of a 16-bit little-endian
word. Frame k starts at byte k * frame_size_bytes(spec), so single frames
can be read by seeking.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DimensionError, SampleRangeError, TruncatedFileError

C420 = "420"
C400 = "400"


@dataclass(frozen=True)
class VideoSpec:
    """Dimensions and sample format of a raw sequence."""

    width: int
    height: int
    bit_depth: int = 8
    chroma: str = C420
    frame_count: int = 0
    label: str = ""

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DimensionError(f"invalid dimensions {self.width}x{self.height}")
        if self.bit_depth not in (8, 10):
            raise ConfigError(f"bit_depth must be 8 or 10, got {self.bit_depth}")
        if self.chroma not in (C420, C400):
            raise ConfigError(f"chroma must be '{C420}' or '{C400}', got {self.chroma!r}")
        if self.chroma == C420 and (self.width % 2 or self.height % 2):
            raise DimensionError(
                f"4:2:0 requires even dimensions, got {self.width}x{self.height}"
            )
        if self.frame_count < 0:
            raise ConfigError("frame_count must be >= 0")

    @property
    def max_value(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def container_bytes(self) -> int:
        return 1 if self.bit_depth == 8 else 2

    @property
    def dtype(self):
        return np.uint8 if self.bit_depth == 8 else np.uint16

    def scaled(self, factor: Fraction) -> "VideoSpec":
        """Spec with dimensions multiplied by factor (must stay integral)."""
        width, height = scaled_dims(self.width, self.height, factor)
        return replace(self, width=width, height=height)


def scaled_dims(width: int, height: int, factor: Fraction) -> tuple[int, int]:
    """Width and height multiplied by factor; DimensionError unless both are integral."""
    w, h = width * factor.numerator, height * factor.numerator
    if w % factor.denominator or h % factor.denominator:
        raise DimensionError(f"scale {factor} of {width}x{height} is not integral")
    return w // factor.denominator, h // factor.denominator


@dataclass
class Frame:
    """One frame: luma plane plus optional half-resolution chroma planes."""

    y: np.ndarray
    cb: np.ndarray | None = None
    cr: np.ndarray | None = None

    def planes(self) -> Iterator[np.ndarray]:
        yield self.y
        if self.cb is not None:
            yield self.cb
        if self.cr is not None:
            yield self.cr

    def matches(self, spec: VideoSpec) -> bool:
        if self.y.shape != (spec.height, spec.width):
            return False
        if spec.chroma == C400:
            return self.cb is None and self.cr is None
        cdims = (spec.height // 2, spec.width // 2)
        return (
            self.cb is not None
            and self.cr is not None
            and self.cb.shape == cdims
            and self.cr.shape == cdims
        )


def frame_size_bytes(spec: VideoSpec) -> int:
    """Bytes occupied by one frame: 1.5*W*H container words for 4:2:0, W*H for mono."""
    luma = spec.width * spec.height
    samples = luma + (luma // 2 if spec.chroma == C420 else 0)
    return samples * spec.container_bytes


def parse_spec_string(text: str, frame_count: int = 0, label: str = "") -> VideoSpec:
    """Parse 'WxH:bitdepth:chroma' (e.g. '1920x1080:10:420') into a VideoSpec."""
    try:
        dims, depth, chroma = text.split(":")
        w, h = dims.lower().split("x")
        return VideoSpec(int(w), int(h), int(depth), chroma, frame_count, label)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, (DimensionError, ConfigError)):
            raise
        raise ConfigError(f"cannot parse spec string {text!r}, want WxH:bitdepth:chroma") from exc


def _parse_plane(buf: bytes, w: int, h: int, spec: VideoSpec, frame_index: int, strict: bool) -> np.ndarray:
    if spec.bit_depth == 8:
        return np.frombuffer(buf, dtype=np.uint8).reshape(h, w).copy()
    plane = np.frombuffer(buf, dtype="<u2").reshape(h, w).astype(np.uint16)
    if (plane > spec.max_value).any():
        if strict:
            raise SampleRangeError(
                f"frame {frame_index}: sample exceeds {spec.bit_depth}-bit range"
            )
        warnings.warn(
            f"frame {frame_index}: masking samples above {spec.bit_depth}-bit range",
            stacklevel=3,
        )
        plane &= spec.max_value
    return plane


def _split_frame(buf: bytes, spec: VideoSpec, frame_index: int, strict: bool) -> Frame:
    cb = spec.container_bytes
    luma_bytes = spec.width * spec.height * cb
    y = _parse_plane(buf[:luma_bytes], spec.width, spec.height, spec, frame_index, strict)
    if spec.chroma == C400:
        return Frame(y=y)
    cw, ch = spec.width // 2, spec.height // 2
    csize = cw * ch * cb
    u = _parse_plane(buf[luma_bytes : luma_bytes + csize], cw, ch, spec, frame_index, strict)
    v = _parse_plane(buf[luma_bytes + csize :], cw, ch, spec, frame_index, strict)
    return Frame(y=y, cb=u, cr=v)


def read_sequence(path, spec: VideoSpec, strict: bool = False) -> Iterator[Frame]:
    """Yield exactly spec.frame_count frames from a raw planar file.

    The file size is checked eagerly; out-of-range 10-bit samples are
    masked with a warning, or raise SampleRangeError when strict=True.
    """
    fsize = frame_size_bytes(spec)
    needed = spec.frame_count * fsize
    actual = os.path.getsize(path)
    if actual < needed:
        raise TruncatedFileError(
            f"{path}: need {needed} bytes for {spec.frame_count} frames, file has {actual}"
        )

    def _frames():
        with open(path, "rb") as fh:
            for k in range(spec.frame_count):
                buf = fh.read(fsize)
                yield _split_frame(buf, spec, k, strict)

    return _frames()


def read_frame(path, spec: VideoSpec, index: int, strict: bool = False) -> Frame:
    """Read frame `index` directly by seeking (frames are fixed-size records)."""
    if not 0 <= index < spec.frame_count:
        raise IndexError(f"frame index {index} outside [0, {spec.frame_count})")
    fsize = frame_size_bytes(spec)
    needed = (index + 1) * fsize
    actual = os.path.getsize(path)
    if actual < needed:
        raise TruncatedFileError(
            f"{path}: need {needed} bytes for frame {index}, file has {actual}"
        )
    with open(path, "rb") as fh:
        fh.seek(index * fsize)
        return _split_frame(fh.read(fsize), spec, index, strict)


def _plane_bytes(plane: np.ndarray, spec: VideoSpec, frame_index: int) -> bytes:
    if (np.asarray(plane) > spec.max_value).any() or (np.asarray(plane) < 0).any():
        raise SampleRangeError(
            f"frame {frame_index}: sample outside [0, {spec.max_value}] on write"
        )
    if spec.bit_depth == 8:
        return plane.astype(np.uint8).tobytes()
    return plane.astype("<u2").tobytes()


def write_sequence(frames: Iterable[Frame], spec: VideoSpec, path) -> int:
    """Write frames as a raw planar file; returns the byte count written.

    Round-trips bit-exactly with read_sequence for any valid spec.
    """
    written = 0
    with open(path, "wb") as fh:
        for k, frame in enumerate(frames):
            if not frame.matches(spec):
                raise DimensionError(
                    f"frame {k} does not match spec {spec.width}x{spec.height} {spec.chroma}"
                )
            for plane in frame.planes():
                buf = _plane_bytes(plane, spec, k)
                fh.write(buf)
                written += len(buf)
    return written
