"""Exception types shared across the toolkit, the placeholder check of
external command templates, and the call that runs those commands."""

import os
import shlex
import signal
import subprocess
import threading
from contextlib import suppress
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
    """The placeholder names of `template`; ConfigError unless it splits
    into shell-style arguments, each argument's placeholders parse, and it
    has every {required} placeholder and none outside `required` and
    `optional`."""
    try:
        names = {name for arg in shlex.split(template) for name in _fields(arg)}
    except ValueError as exc:
        raise ConfigError(f"{what} template does not parse ({exc}): {template!r}") from None
    missing = [f"{{{n}}}" for n in required if n not in names]
    unknown = [f"{{{n}}}" for n in sorted(names - {*required, *optional})]
    problems = [f"{kind} {', '.join(ph)}" for kind, ph in (("missing", missing), ("unknown", unknown)) if ph]
    if problems:
        raise ConfigError(f"{what} template {'; '.join(problems)}: {template!r}")
    return names


_running: set[int] = set()  # process groups of the tools run_tool waits on
_running_lock = threading.Lock()


def _kill_group(pgid: int) -> None:
    with suppress(ProcessLookupError):  # the group has already gone
        os.killpg(pgid, signal.SIGKILL)


def run_tool(template: str, what: str, timeout: float | None = None, fields=None) -> subprocess.CompletedProcess:
    """Run an external command template, capturing stdout and stderr as
    text (bytes that are not UTF-8 are replaced).

    The template is split into arguments as a POSIX shell would (quotes
    group, no expansion), then each argument's placeholders are filled
    from `fields`, so a value is always exactly one argument, whatever
    spaces or quotes it holds. The command runs in a session of its own,
    so no terminal signal reaches it: kill_running_tools stops it. A
    command still running after `timeout` seconds (None: no limit) is
    killed with every process it started and reaped. Such a timeout and a
    non-zero exit raise ExternalToolError naming `what` and the command;
    an exit also gives its code and the last stderr line.
    """
    argv = [arg.format(**(fields or {})) for arg in shlex.split(template)]
    cmd = shlex.join(argv)
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, errors="replace", start_new_session=True,
    ) as proc:
        with _running_lock:
            _running.add(proc.pid)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException as exc:
            _kill_group(proc.pid)  # the unreaped leader keeps its group alive
            proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            raise ExternalToolError(  # its output so far is bytes, or None
                f"{what} command timed out after {timeout:g} s: {cmd}",
                stdout=(exc.stdout or b"").decode(errors="replace"),
                stderr=(exc.stderr or b"").decode(errors="replace"),
            ) from None
        finally:
            with _running_lock:
                _running.discard(proc.pid)
    if proc.returncode:
        last = stderr.strip().rpartition("\n")[2].strip()  # the last non-empty line
        raise ExternalToolError(
            f"{what} command exited {proc.returncode}: {cmd}" + (f" -- {last}" if last else ""),
            stdout=stdout, stderr=stderr, returncode=proc.returncode,
        )
    return subprocess.CompletedProcess(argv, 0, stdout, stderr)


def kill_running_tools() -> None:
    """SIGKILL every process group started by a run_tool call, in any
    thread, that is still waiting; each such call then raises
    ExternalToolError with the tool's exit status -9."""
    with _running_lock:
        for pgid in _running:
            _kill_group(pgid)
