"""Exception types shared across the toolkit."""


class RqpipeError(Exception):
    """Base class for all toolkit errors."""


class TruncatedFileError(RqpipeError, ValueError):
    """Raw sequence file holds fewer bytes than the spec requires."""


class SampleRangeError(RqpipeError, ValueError):
    """Sample value exceeds the declared bit-depth range."""


class DimensionError(RqpipeError, ValueError):
    """Plane or frame dimensions are invalid for the requested operation."""


class ConfigError(RqpipeError, ValueError):
    """Invalid or incomplete configuration."""


class ExternalToolError(RqpipeError, RuntimeError):
    """An external command failed; carries its exit code and captured output."""

    def __init__(self, message, stdout="", stderr="", returncode=None):
        super().__init__(message)
        self.stdout = stdout
        self.stderr = stderr
        self.returncode = returncode


class MetricParseError(RqpipeError, ValueError):
    """External metric output could not be parsed into scores."""


class CurveError(RqpipeError, ValueError):
    """Rate-quality curve is unusable: bad points, empty overlap, mixed metrics."""


class ShapeError(RqpipeError, ValueError):
    """Tensor or layer-graph shapes are inconsistent."""


class WeightFormatError(RqpipeError, ValueError):
    """Weight file is malformed or does not match the network."""
