import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from rqpipe import Frame, VideoSpec, frame_size_bytes, read_frame, read_sequence, write_sequence
from rqpipe.errors import ConfigError, DimensionError, SampleRangeError, TruncatedFileError
from rqpipe.frame_io import C400, C420, parse_spec_string


def make_frame(spec, rng):
    y = rng.integers(0, spec.max_value + 1, (spec.height, spec.width)).astype(spec.dtype)
    if spec.chroma == C400:
        return Frame(y=y)
    cw, ch = spec.width // 2, spec.height // 2
    return Frame(
        y=y,
        cb=rng.integers(0, spec.max_value + 1, (ch, cw)).astype(spec.dtype),
        cr=rng.integers(0, spec.max_value + 1, (ch, cw)).astype(spec.dtype),
    )


class TestFrameSizeBytes:
    def test_2x2_mono_8bit(self):
        assert frame_size_bytes(VideoSpec(2, 2, 8, C400)) == 4

    def test_hd_420_10bit(self):
        # 1.5 * 1920 * 1080 * 2
        assert frame_size_bytes(VideoSpec(1920, 1080, 10, C420)) == 6_220_800

    def test_4k_420_8bit(self):
        # 1.5 * 4096 * 2048
        assert frame_size_bytes(VideoSpec(4096, 2048, 8, C420)) == 12_582_912

    def test_420_frame_is_one_and_a_half_luma(self):
        spec = VideoSpec(4, 4, 8, C420)
        assert frame_size_bytes(spec) == 16 + 4 + 4

    @pytest.mark.parametrize("chroma", [C420, C400])
    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_plane_shapes_add_up_to_the_frame_size(self, chroma, bit_depth):
        spec = VideoSpec(12, 6, bit_depth, chroma)
        shapes = spec.plane_shapes
        assert shapes[0] == (6, 12)
        assert shapes[1:] == (((3, 6), (3, 6)) if chroma == C420 else ())
        samples = sum(h * w for h, w in shapes)
        assert samples * spec.container_bytes == frame_size_bytes(spec)


class TestRead:
    def test_2x2_mono_byte_identity(self, tmp_path):
        path = tmp_path / "a.yuv"
        path.write_bytes(bytes([0, 1, 2, 3]))
        spec = VideoSpec(2, 2, 8, C400, frame_count=1)
        (frame,) = list(read_sequence(path, spec))
        assert frame.y.tolist() == [[0, 1], [2, 3]]
        assert frame.cb is None

    def test_10bit_max_value_roundtrip(self, tmp_path):
        path = tmp_path / "a.yuv"
        path.write_bytes(np.full(4, 1023, dtype="<u2").tobytes())
        spec = VideoSpec(2, 2, 10, C400, frame_count=1)
        (frame,) = list(read_sequence(path, spec))
        assert (frame.y == 1023).all()

    def test_420_two_frames_consume_24_bytes_each(self, tmp_path):
        path = tmp_path / "a.yuv"
        path.write_bytes(bytes(range(48)))
        spec = VideoSpec(4, 4, 8, C420, frame_count=2)
        frames = list(read_sequence(path, spec))
        assert len(frames) == 2
        # frame 1 starts at byte 24: position-deterministic parsing
        assert frames[1].y[0, 0] == 24
        assert frames[1].cb[0, 0] == 40
        assert frames[1].cr[0, 0] == 44

    def test_truncated_file_names_byte_counts(self, tmp_path):
        path = tmp_path / "short.yuv"
        path.write_bytes(bytes(20))
        spec = VideoSpec(4, 4, 8, C420, frame_count=2)
        with pytest.raises(TruncatedFileError, match="48.*20"):
            read_sequence(path, spec)

    def test_out_of_range_10bit_raises_not_masked(self, tmp_path):
        path = tmp_path / "hot.yuv"
        path.write_bytes(np.array([0xFFFF, 1, 2, 3], dtype="<u2").tobytes())
        spec = VideoSpec(2, 2, 10, C400, frame_count=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleRangeError, match=re.escape(
                f"{path}: frame 0, plane 0: sample 65535 at row 0, column 0 is outside [0, 1023]"
            )):
                list(read_sequence(path, spec))

    def test_out_of_range_strict_raises_with_frame_index(self, tmp_path):
        path = tmp_path / "hot.yuv"
        good = np.zeros(4, dtype="<u2").tobytes()
        bad = np.array([0x7FFF, 0, 0, 0], dtype="<u2").tobytes()
        path.write_bytes(good + bad)
        spec = VideoSpec(2, 2, 10, C400, frame_count=2)
        with pytest.raises(SampleRangeError, match="frame 1"):
            list(read_sequence(path, spec))

    def test_every_bad_file_of_a_process_raises_with_its_own_names(self, tmp_path):
        # the same fault in a second file is named again: nothing is said once
        # per process and then read silently
        spec = VideoSpec(4, 4, 10, C420, frame_count=2)
        cases = [("a.yuv", 1, 2, (1, 0), 2048), ("b.yuv", 0, 0, (3, 2), 4095)]
        for name, frame, plane, (r, c), value in cases:
            frames = [make_frame(spec, np.random.default_rng(3)) for _ in range(2)]
            list(frames[frame].planes())[plane][r, c] = value
            path = tmp_path / name
            path.write_bytes(b"".join(p.astype("<u2").tobytes() for f in frames for p in f.planes()))
            want = re.escape(f"{path}: frame {frame}, plane {plane}: sample {value} at row {r}, column {c}")
            with pytest.raises(SampleRangeError, match=want):
                list(read_sequence(path, spec))
            with pytest.raises(SampleRangeError, match=want):
                read_frame(path, spec, frame)
            assert np.array_equal(read_frame(path, spec, 1 - frame).y, frames[1 - frame].y)

    def test_file_cut_short_after_the_size_check_raises(self, tmp_path):
        path = tmp_path / "a.yuv"
        spec = VideoSpec(4, 4, 10, C420, frame_count=2)
        write_sequence([make_frame(spec, np.random.default_rng(1)) for _ in range(2)], spec, path)
        frames = read_sequence(path, spec)  # the size check passes here
        os.truncate(path, frame_size_bytes(spec) + 40)  # inside frame 1's luma
        next(frames)
        with pytest.raises(TruncatedFileError, match="frame 1"):
            next(frames)

    def test_read_frame_seeks(self, tmp_path):
        path = tmp_path / "a.yuv"
        path.write_bytes(bytes(range(8)))
        spec = VideoSpec(2, 2, 8, C400, frame_count=2)
        assert read_frame(path, spec, 1).y.tolist() == [[4, 5], [6, 7]]


class TestWrite:
    @pytest.mark.parametrize(
        "spec",
        [
            VideoSpec(6, 4, 8, C420, frame_count=3),
            VideoSpec(6, 4, 10, C420, frame_count=3),
            VideoSpec(5, 3, 8, C400, frame_count=2),
            VideoSpec(5, 3, 10, C400, frame_count=2),
        ],
    )
    def test_roundtrip_random_frames(self, tmp_path, spec):
        rng = np.random.default_rng(42)
        frames = [make_frame(spec, rng) for _ in range(spec.frame_count)]
        path = tmp_path / "seq.yuv"
        written = write_sequence(frames, spec, path)
        assert written == spec.frame_count * frame_size_bytes(spec)
        back = list(read_sequence(path, spec))
        for a, b in zip(frames, back):
            for pa, pb in zip(a.planes(), b.planes()):
                assert np.array_equal(pa, pb)

    def test_420_10bit_single_frame_is_48_bytes(self, tmp_path):
        spec = VideoSpec(4, 4, 10, C420, frame_count=1)
        frames = [make_frame(spec, np.random.default_rng(0))]
        assert write_sequence(frames, spec, tmp_path / "f.yuv") == 48

    def test_empty_stream_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.yuv"
        assert write_sequence([], VideoSpec(4, 4, 8, C420), path) == 0
        assert path.stat().st_size == 0

    def test_dimension_mismatch_names_frame_index(self, tmp_path):
        spec = VideoSpec(4, 4, 8, C420, frame_count=2)
        rng = np.random.default_rng(0)
        good = make_frame(spec, rng)
        bad = Frame(y=np.zeros((2, 2), np.uint8))
        with pytest.raises(DimensionError, match="frame 1"):
            write_sequence([good, bad], spec, tmp_path / "x.yuv")

    def test_out_of_range_write_rejected(self, tmp_path):
        spec = VideoSpec(2, 2, 10, C400, frame_count=1)
        frame = Frame(y=np.full((2, 2), 1024, np.uint16))
        with pytest.raises(SampleRangeError):
            write_sequence([frame], spec, tmp_path / "x.yuv")

    @pytest.mark.parametrize("value", [-1, 1024])
    def test_out_of_range_write_names_file_plane_and_sample(self, tmp_path, value):
        spec = VideoSpec(4, 4, 10, C420, frame_count=2)
        frames = [make_frame(spec, np.random.default_rng(4)) for _ in range(2)]
        frames[1].cb = frames[1].cb.astype(np.int32)
        frames[1].cb[1, 0] = value
        path = tmp_path / "x.yuv"
        with pytest.raises(SampleRangeError, match=re.escape(
            f"{path}: frame 1, plane 1: sample {value} at row 1, column 0 is outside [0, 1023]"
        )):
            write_sequence(frames, spec, path)


class TestCopies:
    """Planes are read into and written from their own arrays, not via bytes."""

    SPEC = VideoSpec(512, 256, 10, C420, frame_count=3)

    def test_reading_a_frame_holds_one_frame(self, tmp_path):
        spec = self.SPEC
        path = tmp_path / "a.yuv"
        write_sequence([make_frame(spec, np.random.default_rng(2)) for _ in range(3)], spec, path)
        frames = read_sequence(path, spec)
        next(frames)  # opens the file
        tracemalloc.start()
        try:
            held = next(frames)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            latest = next(frames)  # read while the previous frame is still held
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held.y.dtype == latest.y.dtype == np.uint16
        assert extra < frame_size_bytes(spec) + 64 * 1024

    def test_writing_container_planes_copies_nothing(self, tmp_path):
        spec = self.SPEC
        frames = [make_frame(spec, np.random.default_rng(3)) for _ in range(3)]
        tracemalloc.start()
        try:
            written = write_sequence(frames, spec, tmp_path / "a.yuv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == 3 * frame_size_bytes(spec)
        assert peak < 64 * 1024  # a whole Cb plane is 128 KiB


class TestSpecValidation:
    def test_odd_420_rejected(self):
        with pytest.raises(DimensionError):
            VideoSpec(3, 4, 8, C420)

    def test_bad_bit_depth_rejected(self):
        with pytest.raises(ConfigError):
            VideoSpec(4, 4, 12, C420)

    def test_parse_spec_string(self):
        spec = parse_spec_string("1920x1080:10:420", frame_count=97)
        assert (spec.width, spec.height, spec.bit_depth, spec.chroma) == (1920, 1080, 10, C420)
        assert spec.frame_count == 97

    def test_parse_spec_string_garbage(self):
        with pytest.raises(ConfigError):
            parse_spec_string("not-a-spec")
