"""Experiment configuration: method definitions and the INI loader.

Experiment files are INI-style. Below is every key with its default, but
for the five marked as having none, whose values are examples. A key left
out or left empty takes its default; an empty default means unset.

    [run]
    workdir = rqpipe_out
    # seconds an external codec or metric command may run before it is
    # killed and its job fails; unset: no limit
    codec_timeout =
    metric_timeout =
    # PSNR-Y, in dB, of a frame equal to its reference
    psnr_inf_cap = 100

    [sequence.<label>]
    # these five have no default
    path = seqs/a.yuv
    width = 64
    height = 64
    frame_count = 8
    frame_rate = 30
    bit_depth = 8
    # 420 or 400 (monochrome)
    chroma = 420
    # optional monochrome depth stream coded at qp_depth; unset
    # depth_bit_depth: the texture's bit_depth
    depth_path =
    depth_bit_depth =

    [method.<label>]
    # in (0, 1]; 1/1 codes at full size and does not resample
    scale = 1/1
    down_filter = lanczos:3
    # unset: nn when the method resamples
    up_filter =
    # unset: down_filter
    depth_down_filter =
    qp_texture_offset = 0
    # mock, or external with encode_cmd and decode_cmd templates
    codec = mock
    encode_cmd =
    decode_cmd =
    # a network JSON file, mfrnet, or mfrnet:blocks,convs,channels,growth,
    # with weights such as 22=w22.rqpw, 27=w27.rqpw, ... (nearest QP wins)
    postproc_net =
    postproc_weights =
    postproc_luma_only = true

    [qps]
    pairs = 22:4, 27:7, 32:11, 37:15

    [metrics]
    psnr_y = native
    # vmaf = vmaf-tool --ref {ref} --dist {dist} -w {w} -h {h} -b {bitdepth}

Relative paths resolve against the config file's directory. Every value
goes through one reader, _read, which parses it by its _KEYS entry: an
unknown section or key, a missing key without a default, and a value that
does not parse are each a ConfigError naming the section and the key.
[metrics] keys are free metric ids; keys that a [DEFAULT] section gives
every section are allowed (and are not metric ids). A key that acts only
with another is a ConfigError without it: postproc_weights without
postproc_net, depth_bit_depth without depth_path, encode_cmd or
decode_cmd without codec = external. What could only fail the jobs later
fails at load too (ExperimentConfig.validate).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from ..errors import ConfigError, DimensionError, RqpipeError, check_template
from ..frame_io import C400, C420, VideoSpec
from ..metrics import DEFAULT_PSNR_CAP, METRIC_FIELDS
from ..postproc_cnn import NetworkSpec, build_mfrnet_style, load_weights, validate_weights
from ..resample import LANCZOS3, NEAREST, ResampleFilter, parse_scale
from .codecs import DECODE_FIELDS, ENCODE_FIELDS, ExternalCodec, MockCodec, QP_MAX, QP_MIN
from .manifest import sha256_file

# texture/depth quantization pairs of the common test conditions
DEFAULT_QP_PAIRS = ((22, 4), (27, 7), (32, 11), (37, 15))
# texture shift applied when coding at half resolution
HALF_RES_QP_OFFSET = -6


@dataclass(frozen=True)
class QpPair:
    qp_texture: int
    qp_depth: int

    def __post_init__(self):
        for name, qp in (("texture", self.qp_texture), ("depth", self.qp_depth)):
            if not QP_MIN <= qp <= QP_MAX:
                raise ConfigError(f"{name} qp {qp} outside [{QP_MIN}, {QP_MAX}]")


@dataclass
class SequenceConfig:
    label: str
    path: Path
    spec: VideoSpec
    frame_rate: float
    depth_path: Path | None = None
    depth_spec: VideoSpec | None = None


@dataclass
class PostprocConfig:
    net: NetworkSpec
    weights_by_qp: dict[int, Path]
    luma_only: bool = True
    # sha256 of each weight file by path, taken when validate() reads and
    # checks it, and the os.stat signature it was taken at: a later call
    # hashes the file again only when that changed. A job loads only
    # weights that still hash to it
    weights_sha256: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    weights_stat: dict[str, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def select_weights_qp(self, base_qp_texture: int) -> int:
        """Nearest configured base QP wins; ties go to the lower QP."""
        return min(
            self.weights_by_qp, key=lambda q: (abs(q - base_qp_texture), q)
        )


@dataclass
class MethodConfig:
    label: str
    codec: object
    scale: Fraction = Fraction(1, 1)
    down_filter: ResampleFilter = LANCZOS3
    up_filter: ResampleFilter | None = None
    depth_down_filter: ResampleFilter | None = None  # None: same kernel as texture
    qp_texture_offset: int = 0
    postproc: PostprocConfig | None = None

    def __post_init__(self):
        if not 0 < self.scale <= 1:
            raise ConfigError(f"method {self.label!r}: scale must be in (0, 1], got {self.scale}")
        if self.scale != 1 and self.up_filter is None:
            self.up_filter = NEAREST

    @property
    def resamples(self) -> bool:
        return self.scale != 1

    def effective_qp(self, pair: QpPair) -> QpPair:
        qp = pair.qp_texture + self.qp_texture_offset
        if not QP_MIN <= qp <= QP_MAX:
            raise ConfigError(
                f"method {self.label!r}: offset {self.qp_texture_offset} pushes "
                f"texture qp {pair.qp_texture} outside [{QP_MIN}, {QP_MAX}]"
            )
        return QpPair(qp, pair.qp_depth)


@dataclass
class ExperimentConfig:
    sequences: list[SequenceConfig]
    methods: list[MethodConfig]
    qp_pairs: list[QpPair]
    metrics: dict[str, str]  # metric_id -> "native" or command template
    workdir: Path = Path("rqpipe_out")
    psnr_inf_cap: float = DEFAULT_PSNR_CAP
    metric_timeout: float | None = None  # seconds; external metrics only

    def validate(self):
        if not self.sequences:
            raise ConfigError("no sequences configured")
        if not self.methods:
            raise ConfigError("no methods configured")
        if not self.qp_pairs:
            raise ConfigError("no qp pairs configured")
        if not 0 < self.psnr_inf_cap < math.inf:  # a NaN would also make every header differ
            raise ConfigError(f"[run] psnr_inf_cap must be a finite number > 0, got {self.psnr_inf_cap}")
        for metric_id, how in self.metrics.items():
            if how != "native":
                check_template(how, *METRIC_FIELDS, what=f"metric {metric_id!r}")
            elif metric_id != "psnr_y":
                raise ConfigError(f"metric {metric_id!r}: only psnr_y is computed natively")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate method labels: {labels}")
        for method in self.methods:
            for pair in self.qp_pairs:
                method.effective_qp(pair)  # raises if the offset leaves the range
            if method.postproc is not None:
                if not method.postproc.weights_by_qp:
                    raise ConfigError(f"method {method.label!r}: empty weight map")
                for qp, path in method.postproc.weights_by_qp.items():
                    if not Path(path).is_file():
                        raise ConfigError(
                            f"method {method.label!r}: weights for qp {qp} missing: {path}"
                        )
                    st = os.stat(path)  # before the read, so a write during it shows next time
                    signature = (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
                    if method.postproc.weights_stat.get(str(path)) != signature:
                        # read and checked when hashed: a job refuses weights that no longer hash to it
                        validate_weights(method.postproc.net, load_weights(path))
                        method.postproc.weights_sha256[str(path)] = sha256_file(path)
                        method.postproc.weights_stat[str(path)] = signature
        for seq in self.sequences:
            if seq.spec.frame_count < 1:
                raise ConfigError(f"sequence {seq.label!r}: frame_count must be at least 1")
            if not 0 < seq.frame_rate < math.inf:
                raise ConfigError(
                    f"sequence {seq.label!r}: frame_rate must be a finite number > 0, got {seq.frame_rate}"
                )
            for path in filter(None, (seq.path, seq.depth_path)):
                if not Path(path).is_file():
                    raise ConfigError(f"sequence {seq.label!r}: file missing: {path}")
            # a depth stream has the texture's size and no chroma, so it
            # scales whenever the texture does
            for method in self.methods:
                try:
                    seq.spec.scaled(method.scale)
                except DimensionError as exc:
                    raise ConfigError(f"method {method.label!r} cannot code sequence {seq.label!r}: {exc}") from None


def _parse_qp_pairs(text: str) -> list[QpPair]:
    return [QpPair(*map(int, chunk.split(":"))) for chunk in text.replace(";", ",").split(",") if chunk.strip()]


def _parse_weight_map(text: str, base: Path) -> dict[int, Path]:
    out = {}
    for chunk in filter(None, map(str.strip, text.split(","))):
        qp_text, path = chunk.split("=", 1)
        qp = int(qp_text)
        if qp in out:
            raise ConfigError(f"two weight files for qp {qp}")
        out[qp] = base / path.strip()
    return out


def _parse_net(text: str, base: Path) -> NetworkSpec:
    if text == "mfrnet":
        return build_mfrnet_style()
    if text.startswith("mfrnet:"):
        return build_mfrnet_style(*map(int, text[len("mfrnet:"):].split(",")))
    return NetworkSpec.from_json((base / text).read_text())


def _path(text: str, base: Path) -> Path:
    return base / text


def _checked(parse, ok=lambda value: True):
    """A _KEYS parse function: `parse` of the text, and a ValueError
    unless `ok` holds for the result (`ok` may raise an error of its own)."""
    def parse_text(text: str, base: Path):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse_text


_REQUIRED = object()  # the default of a key that must be set
_NUMBER = _checked(float)
_POSITIVE = _checked(int, lambda n: n > 0)
_BIT_DEPTH = _checked(int, lambda n: n in (8, 10))
_SECONDS = _checked(float, lambda s: 0 < s < math.inf)
_FILTER = _checked(ResampleFilter.parse)
_FILTER_VALID = "lanczos, lanczos:<taps> or nn"
_BOOLEAN = _checked(lambda text: configparser.ConfigParser.BOOLEAN_STATES.get(text.lower()), lambda b: b is not None)

# section kind -> key -> (parse(text, base), what a valid value is, default:
# INI text, parsed as a value is; None for unset; or _REQUIRED)
_KEYS = {
    "run": {
        "workdir": (_path, "a path", "rqpipe_out"),
        "codec_timeout": (_SECONDS, "a positive number of seconds", None),
        "metric_timeout": (_SECONDS, "a positive number of seconds", None),
        "psnr_inf_cap": (_NUMBER, "a number", f"{DEFAULT_PSNR_CAP:g}"),
    },
    "sequence.": {
        "path": (_path, "a path", _REQUIRED),
        "width": (_POSITIVE, "a positive integer", _REQUIRED),
        "height": (_POSITIVE, "a positive integer", _REQUIRED),
        "frame_count": (_POSITIVE, "at least 1", _REQUIRED),
        "frame_rate": (_NUMBER, "a number", _REQUIRED),
        "bit_depth": (_BIT_DEPTH, "8 or 10", "8"),
        "chroma": (_checked(str, lambda c: c in (C420, C400)), f"{C420} or {C400}", C420),
        "depth_path": (_path, "a path", None),
        "depth_bit_depth": (_BIT_DEPTH, "8 or 10", None),
    },
    "method.": {
        "scale": (_checked(parse_scale), "a fraction such as 1/2", "1/1"),
        "down_filter": (_FILTER, _FILTER_VALID, "lanczos:3"),
        "up_filter": (_FILTER, _FILTER_VALID, None),
        "depth_down_filter": (_FILTER, _FILTER_VALID, None),
        "qp_texture_offset": (_checked(int), "an integer", "0"),
        "codec": (_checked(str.lower, lambda c: c in ("mock", "external")), "mock or external", "mock"),
        "encode_cmd": (_checked(str, lambda t: check_template(t, ENCODE_FIELDS, what="encode")), "a template", None),
        "decode_cmd": (_checked(str, lambda t: check_template(t, DECODE_FIELDS, what="decode")), "a template", None),
        "postproc_net": (_parse_net, "a network JSON file, mfrnet or mfrnet:<blocks>,<convs>,<channels>,<growth>", None),
        "postproc_weights": (_parse_weight_map, "qp=path entries separated by commas", None),
        "postproc_luma_only": (_BOOLEAN, "true or false", "true"),
    },
    "qps": {
        "pairs": (_checked(_parse_qp_pairs), "texture:depth pairs separated by commas",
                  ", ".join(f"{t}:{d}" for t, d in DEFAULT_QP_PAIRS)),
    },
}


def _read(parser, name: str, base: Path) -> dict:
    """Each key of section `name`, its value or else its default parsed by
    its _KEYS entry. ConfigError for a section or key not in _KEYS (but for
    [DEFAULT] keys), a required key left out, and a value that does not parse."""
    kind, dot, label = name.partition(".")
    keys = _KEYS.get(kind + dot)
    if keys is None:
        raise ConfigError(f"unknown section [{name}]")
    section = parser[name] if parser.has_section(name) else {}
    unknown = sorted(set(section) - set(keys) - set(parser.defaults()))
    if unknown:
        raise ConfigError(f"[{name}]: unknown key {', '.join(unknown)}")
    where = f"{kind} {label!r}:" if dot else f"[{name}]"
    values = {}
    for key, (parse, valid, default) in keys.items():
        text = section.get(key) or default  # an empty value is the default
        if text is _REQUIRED:
            raise ConfigError(f"{where} {key} must be set")
        try:
            values[key] = None if text is None else parse(text, base)
        except (ConfigError, OSError) as exc:
            raise ConfigError(f"{where} {exc} ({key} = {text!r})") from exc
        except RqpipeError:
            raise  # an error in the file the value names, a network JSON, which says where it is
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where} {key} must be {valid}, got {text!r}") from exc
    return values


def _sequence(label: str, v: dict) -> SequenceConfig:
    try:
        spec = VideoSpec(v["width"], v["height"], v["bit_depth"], v["chroma"], v["frame_count"], label)
    except DimensionError as exc:  # odd 4:2:0 sizes: the one check that no single key's parse makes
        raise ConfigError(f"sequence {label!r}: {exc}") from None
    if v["depth_bit_depth"] and not v["depth_path"]:
        raise ConfigError(f"sequence {label!r}: depth_bit_depth without depth_path")
    depth_spec = None
    if v["depth_path"]:
        bit_depth = v["depth_bit_depth"] or spec.bit_depth
        depth_spec = replace(spec, bit_depth=bit_depth, chroma=C400, label=f"{label}_depth")
    return SequenceConfig(label, v["path"], spec, v["frame_rate"], v["depth_path"], depth_spec)


def _method(label: str, v: dict, codec_timeout: float | None) -> MethodConfig:
    if v["codec"] == "mock":
        for key in ("encode_cmd", "decode_cmd"):
            if v[key]:
                raise ConfigError(f"method {label!r}: {key} needs codec = external, got codec = mock")
        codec = MockCodec()
    elif v["encode_cmd"] and v["decode_cmd"]:
        codec = ExternalCodec(v["encode_cmd"], v["decode_cmd"], codec_timeout)
    else:
        raise ConfigError(f"method {label!r}: codec external needs encode_cmd and decode_cmd")
    if v["postproc_weights"] and not v["postproc_net"]:
        raise ConfigError(f"method {label!r}: postproc_weights without postproc_net")
    postproc = None
    if v["postproc_net"]:
        if not v["postproc_weights"]:
            raise ConfigError(f"method {label!r}: postproc_net without postproc_weights")
        postproc = PostprocConfig(v["postproc_net"], v["postproc_weights"], v["postproc_luma_only"])
    fields = ("scale", "down_filter", "up_filter", "depth_down_filter", "qp_texture_offset")
    return MethodConfig(label, codec, postproc=postproc, **{key: v[key] for key in fields})


def load_experiment(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file."""
    path = Path(path)
    # no interpolation: metric/codec command templates may contain % or {}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:  # not INI text, or a section or key given twice
        raise ConfigError(f"cannot read experiment config {path}: {exc}") from None
    if not found:
        raise ConfigError(f"cannot read experiment config {path}")
    names = dict.fromkeys(["run", "qps", *parser.sections()])
    sections = {name: _read(parser, name, path.parent) for name in names if name != "metrics"}

    run = sections["run"]
    sequences, methods = [], []
    for name, values in sections.items():
        kind, _, label = name.partition(".")
        if kind == "sequence":
            sequences.append(_sequence(label, values))
        elif kind == "method":
            methods.append(_method(label, values, run["codec_timeout"]))

    metrics = {}
    if parser.has_section("metrics"):
        defaults = parser.defaults()  # shared values, not metric ids
        metrics = {k: v.strip() for k, v in parser["metrics"].items() if k not in defaults}
    cfg = ExperimentConfig(
        sequences=sequences,
        methods=methods,
        qp_pairs=sections["qps"]["pairs"],
        metrics=metrics or {"psnr_y": "native"},
        workdir=run["workdir"],
        psnr_inf_cap=run["psnr_inf_cap"],
        metric_timeout=run["metric_timeout"],
    )
    cfg.validate()
    return cfg


def config_as_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of the effective configuration."""
    return {
        "workdir": str(cfg.workdir),
        "psnr_inf_cap": cfg.psnr_inf_cap,
        "metric_timeout": cfg.metric_timeout,
        "qp_pairs": [[p.qp_texture, p.qp_depth] for p in cfg.qp_pairs],
        "metrics": dict(cfg.metrics),
        "sequences": [
            {
                "label": s.label,
                "path": str(s.path),
                "width": s.spec.width,
                "height": s.spec.height,
                "bit_depth": s.spec.bit_depth,
                "chroma": s.spec.chroma,
                "frame_count": s.spec.frame_count,
                "frame_rate": s.frame_rate,
                "depth_path": str(s.depth_path) if s.depth_path else None,
                "depth_bit_depth": s.depth_spec.bit_depth if s.depth_spec else None,
            }
            for s in cfg.sequences
        ],
        "methods": [
            {
                "label": m.label,
                "scale": str(m.scale),
                "down_filter": str(m.down_filter),
                "up_filter": str(m.up_filter) if m.up_filter else None,
                "depth_down_filter": str(m.depth_down_filter) if m.depth_down_filter else None,
                "qp_texture_offset": m.qp_texture_offset,
                "codec": m.codec.describe(),
                "postproc": (
                    {
                        "weights_by_qp": {str(q): str(p) for q, p in m.postproc.weights_by_qp.items()},
                        "luma_only": m.postproc.luma_only,
                        "net_meta": m.postproc.net.meta,
                    }
                    if m.postproc
                    else None
                ),
            }
            for m in cfg.methods
        ],
        "conventions": {
            "resample_phase": "center_aligned",
            "resample_boundary": "clamp_to_edge_renormalized",
            "bitrate": "coded_bits * frame_rate / frame_count, depth stream summed in",
            "psnr_aggregation": "mean_of_per_frame",
            "postproc_model_selection": "nearest_base_texture_qp",
        },
    }
