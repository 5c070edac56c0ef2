"""Exception types shared across the toolkit, the placeholder check of
external command templates, and the call that runs those commands."""

import shlex
import subprocess
from string import Formatter


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


def _fields(template: str):
    for _, name, spec, _ in Formatter().parse(template):
        if name is not None:
            yield name
            yield from _fields(spec or "")


def check_template(template: str, required, optional=(), *, what: str) -> set[str]:
    """The placeholder names of `template`; ConfigError unless it has every
    {required} placeholder and none outside `required` and `optional`."""
    try:
        names = set(_fields(template))
    except ValueError as exc:
        raise ConfigError(f"{what} template does not parse ({exc}): {template!r}") from None
    missing = [f"{{{n}}}" for n in required if n not in names]
    unknown = [f"{{{n}}}" for n in sorted(names - {*required, *optional})]
    problems = [f"{kind} {', '.join(ph)}" for kind, ph in (("missing", missing), ("unknown", unknown)) if ph]
    if problems:
        raise ConfigError(f"{what} template {'; '.join(problems)}: {template!r}")
    return names


def run_tool(cmd: str, what: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run an external command line, capturing stdout and stderr as text.

    A command still running after `timeout` seconds (None: no limit) is
    killed and raises ExternalToolError naming it; the caller checks the
    exit status.
    """
    try:
        return subprocess.run(shlex.split(cmd), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # its output so far is bytes, or None
        raise ExternalToolError(
            f"{what} command timed out after {timeout:g} s: {cmd}",
            stdout=(exc.stdout or b"").decode(errors="replace"),
            stderr=(exc.stderr or b"").decode(errors="replace"),
        ) from None
