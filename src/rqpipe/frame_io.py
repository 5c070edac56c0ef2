"""Raw planar YUV sequence reader and writer.

Sequences are headerless planar files. Each frame stores its planes
row-major in the order VideoSpec.plane_shapes gives: luma, then Cb and
Cr at half resolution for 4:2:0, or luma only for monochrome (used to
carry depth maps). 8-bit samples occupy one byte; 10-bit samples occupy
the low 10 bits of a 16-bit little-endian word. Frame k starts at byte
k * frame_size_bytes(spec), so single frames can be read by seeking.
Each plane is read straight into its own array and written from its own
memory, so no frame is held as bytes on the way in or out. A sample
outside the stated bit depth, read or written, is a SampleRangeError
naming the file, frame, plane and sample; none is masked or clipped.
"""

from __future__ import annotations

import os
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

    @property
    def plane_shapes(self) -> tuple[tuple[int, int], ...]:
        """(rows, columns) of each plane of a frame, in file order."""
        luma = (self.height, self.width)
        if self.chroma == C400:
            return (luma,)
        return (luma, (self.height // 2, self.width // 2), (self.height // 2, self.width // 2))

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
        return [p.shape for p in self.planes()] == list(spec.plane_shapes)


def frame_size_bytes(spec: VideoSpec) -> int:
    """Bytes occupied by one frame: 1.5*W*H container words for 4:2:0, W*H for mono."""
    return sum(h * w for h, w in spec.plane_shapes) * spec.container_bytes


def parse_spec_string(text: str, frame_count: int = 0) -> VideoSpec:
    """Parse 'WxH:bitdepth:chroma' (e.g. '1920x1080:10:420') into a VideoSpec."""
    try:
        dims, depth, chroma = text.split(":")
        w, h = dims.lower().split("x")
        return VideoSpec(int(w), int(h), int(depth), chroma, frame_count)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, (DimensionError, ConfigError)):
            raise
        raise ConfigError(f"cannot parse spec string {text!r}, want WxH:bitdepth:chroma") from exc


def _file_dtype(spec: VideoSpec) -> np.dtype:
    """The container dtype as stored: one byte, or a little-endian 16-bit word."""
    return np.dtype(spec.dtype).newbyteorder("<")


def _check_size(path, spec: VideoSpec, frames: int, what: str) -> None:
    needed = frames * frame_size_bytes(spec)
    actual = os.path.getsize(path)
    if actual < needed:
        raise TruncatedFileError(f"{path}: need {needed} bytes for {what}, file has {actual}")


def _range_error(path, index: int, p: int, plane: np.ndarray, spec: VideoSpec) -> SampleRangeError:
    r, c = np.unravel_index(np.argmax((plane < 0) | (plane > spec.max_value)), plane.shape)
    return SampleRangeError(f"{path}: frame {index}, plane {p}: sample {plane[r, c]} at row {r},"
                            f" column {c} is outside [0, {spec.max_value}]")


def _read_frame(fh, spec: VideoSpec, index: int) -> Frame:
    """Frame `index`, read from fh's position with each plane filled in place."""
    planes = []
    for p, shape in enumerate(spec.plane_shapes):
        plane = np.empty(shape, _file_dtype(spec))
        if fh.readinto(plane) != plane.nbytes:
            raise TruncatedFileError(f"{fh.name}: file ends inside frame {index}")
        if spec.bit_depth == 10 and plane.max() > spec.max_value:
            raise _range_error(fh.name, index, p, plane, spec)
        planes.append(plane)
    return Frame(*planes)


def read_sequence(path, spec: VideoSpec) -> Iterator[Frame]:
    """Yield exactly spec.frame_count frames from a raw planar file; the
    size is checked eagerly, each frame's sample range as it is read."""
    _check_size(path, spec, spec.frame_count, f"{spec.frame_count} frames")

    def _frames():
        with open(path, "rb") as fh:
            for k in range(spec.frame_count):
                yield _read_frame(fh, spec, k)

    return _frames()


def read_frame(path, spec: VideoSpec, index: int) -> Frame:
    """Read frame `index` by seeking (frames are fixed-size records), checked as read_sequence's are."""
    if not 0 <= index < spec.frame_count:
        raise IndexError(f"frame index {index} outside [0, {spec.frame_count})")
    _check_size(path, spec, index + 1, f"frame {index}")
    with open(path, "rb") as fh:
        fh.seek(index * frame_size_bytes(spec))
        return _read_frame(fh, spec, index)


def write_frame(fh, frame: Frame, spec: VideoSpec, index: int, digest=None) -> int:
    """Write frame `index` of a raw planar file at fh's position; returns
    the byte count written. Checked as write_sequence's frames are, and
    `digest`, a hashlib object, is fed every byte written."""
    if not frame.matches(spec):
        raise DimensionError(f"frame {index} does not match spec {spec.width}x{spec.height} {spec.chroma}")
    written = 0
    for p, plane in enumerate(frame.planes()):
        if plane.min() < 0 or plane.max() > spec.max_value:
            raise _range_error(fh.name, index, p, plane, spec)
        data = np.ascontiguousarray(plane, dtype=_file_dtype(spec))
        written += fh.write(data)
        if digest is not None:
            digest.update(data)
    return written


def write_sequence(frames: Iterable[Frame], spec: VideoSpec, path, *, digest=None) -> int:
    """Write frames as a raw planar file; returns the byte count written.

    Round-trips bit-exactly with read_sequence for any valid spec. A plane
    already in the container dtype is written from its own memory; each
    frame is dropped before the next one is pulled. A hashlib object given
    as `digest` is fed every byte written, plane by plane, so the file
    need not be read back to hash it.
    """
    written = 0
    k = 0
    with open(path, "wb") as fh:
        for frame in frames:
            written += write_frame(fh, frame, spec, k, digest)
            del frame  # k, not enumerate(frames): that would hold the frame during the next pull
            k += 1
    return written
