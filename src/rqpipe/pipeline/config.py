"""Experiment configuration: method definitions and the INI loader.

Experiment files are INI-style:

    [run]
    workdir = out
    # seconds an external codec or metric command may run before it is
    # killed and its job fails; no limit when unset
    # codec_timeout = 600
    # metric_timeout = 600

    [sequence.<label>]
    path = seqs/a.yuv
    width = 64
    height = 64
    bit_depth = 8
    chroma = 420
    frame_count = 8
    frame_rate = 30
    # optional monochrome depth stream coded at qp_depth:
    # depth_path = seqs/a_depth.yuv
    # depth_bit_depth = 8

    [method.<label>]
    scale = 1/2                 # in (0, 1]; 1/1 disables resampling
    down_filter = lanczos:3
    up_filter = nn
    qp_texture_offset = -6
    codec = mock                # or: external (needs encode_cmd/decode_cmd)
    # postproc_net = net.json   or  mfrnet:4,4,32,16
    # postproc_weights = 22=w22.rqpw, 27=w27.rqpw, ...

    [qps]
    pairs = 22:4, 27:7, 32:11, 37:15

    [metrics]
    psnr_y = native
    # vmaf = vmaf-tool --ref {ref} --dist {dist} -w {w} -h {h} -b {bitdepth}

Relative paths resolve against the config file's directory. Unknown
keys are rejected: a section other than these, or a key that no loader
reads, is a ConfigError naming it. [metrics] keys are free metric ids,
and keys that a [DEFAULT] section supplies to every section are allowed
(and are not metric ids). A value that could only fail the jobs later is
a ConfigError at load too: a frame_count below 1, a frame_rate that is
not a finite positive number, a filter that does not parse, or a scale
whose coded size is not integral, or not even for 4:2:0, for some
sequence.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ..errors import ConfigError, DimensionError, check_template
from ..frame_io import C400, C420, VideoSpec
from ..metrics import METRIC_FIELDS
from ..postproc_cnn import NetworkSpec, build_mfrnet_style, load_weights, validate_weights
from ..resample import LANCZOS3, NEAREST, ResampleFilter, parse_scale
from .codecs import ExternalCodec, MockCodec, QP_MAX, QP_MIN
from .manifest import sha256_file

# texture/depth quantization pairs of the common test conditions
DEFAULT_QP_PAIRS = ((22, 4), (27, 7), (32, 11), (37, 15))
# texture shift applied when coding at half resolution
HALF_RES_QP_OFFSET = -6

# the keys each section's loader reads; [metrics] keys are metric ids
_SECTION_KEYS = {
    "run": {"workdir", "codec_timeout", "metric_timeout", "psnr_inf_cap"},
    "sequence.": {
        "path", "width", "height", "bit_depth", "chroma", "frame_count", "frame_rate",
        "depth_path", "depth_bit_depth",
    },
    "method.": {
        "scale", "down_filter", "up_filter", "depth_down_filter", "qp_texture_offset",
        "codec", "encode_cmd", "decode_cmd", "postproc_net", "postproc_weights", "postproc_luma_only",
    },
    "qps": {"pairs"},
}


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
    # sha256 of each weight file by path, taken when validate() first reads
    # it; a job loads only weights that still hash to it
    weights_sha256: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)

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
        if self.postproc is not None and self.up_filter is None:
            raise ConfigError(
                f"method {self.label!r}: post-processing requires an upsampling filter"
            )

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
    psnr_inf_cap: float = 100.0
    metric_timeout: float | None = None  # seconds; external metrics only

    def validate(self):
        if not self.sequences:
            raise ConfigError("no sequences configured")
        if not self.methods:
            raise ConfigError("no methods configured")
        if not self.qp_pairs:
            raise ConfigError("no qp pairs configured")
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
                    validate_weights(method.postproc.net, load_weights(path))
                    if str(path) not in method.postproc.weights_sha256:
                        method.postproc.weights_sha256[str(path)] = sha256_file(path)
        for seq in self.sequences:
            if seq.spec.frame_count < 1:
                raise ConfigError(f"sequence {seq.label!r}: frame_count must be at least 1")
            if not 0 < seq.frame_rate < math.inf:
                raise ConfigError(
                    f"sequence {seq.label!r}: frame_rate must be a finite number > 0, got {seq.frame_rate}"
                )
            if not Path(seq.path).is_file():
                raise ConfigError(f"sequence {seq.label!r}: file missing: {seq.path}")
            # a depth stream has the texture's size and no chroma, so it
            # scales whenever the texture does
            for method in self.methods:
                try:
                    seq.spec.scaled(method.scale)
                except DimensionError as exc:
                    raise ConfigError(f"method {method.label!r} cannot code sequence {seq.label!r}: {exc}") from None


def _parse_qp_pairs(text: str) -> list[QpPair]:
    pairs = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            t, d = chunk.split(":")
            pairs.append(QpPair(int(t), int(d)))
        except ValueError as exc:
            raise ConfigError(f"bad qp pair {chunk!r}, want texture:depth") from exc
    return pairs


def _parse_weight_map(text: str, base: Path) -> dict[int, Path]:
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            qp, path = chunk.split("=", 1)
            out[int(qp.strip())] = base / path.strip()
        except ValueError as exc:
            raise ConfigError(f"bad weight entry {chunk!r}, want qp=path") from exc
    return out


def _parse_net(value: str, base: Path) -> NetworkSpec:
    value = value.strip()
    if value.startswith("mfrnet:"):
        try:
            nums = [int(v) for v in value.split(":", 1)[1].split(",")]
            return build_mfrnet_style(*nums)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad builder spec {value!r}") from exc
    if value == "mfrnet":
        return build_mfrnet_style()
    return NetworkSpec.from_json((base / value).read_text())


def _sequence_from_section(label: str, section, base: Path) -> SequenceConfig:
    try:
        spec = VideoSpec(
            width=section.getint("width"),
            height=section.getint("height"),
            bit_depth=section.getint("bit_depth", 8),
            chroma=section.get("chroma", C420).strip(),
            frame_count=section.getint("frame_count"),
            label=label,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sequence {label!r}: bad or missing spec fields") from exc
    if "frame_rate" not in section:
        raise ConfigError(f"sequence {label!r}: frame_rate must be stated explicitly")
    try:
        frame_rate = section.getfloat("frame_rate")
    except ValueError:
        raise ConfigError(f"sequence {label!r}: frame_rate must be a number, got {section['frame_rate']!r}") from None
    seq = SequenceConfig(label=label, path=base / section.get("path"), spec=spec, frame_rate=frame_rate)
    if section.get("depth_path"):
        seq.depth_path = base / section.get("depth_path")
        seq.depth_spec = VideoSpec(
            width=spec.width,
            height=spec.height,
            bit_depth=section.getint("depth_bit_depth", spec.bit_depth),
            chroma=C400,
            frame_count=spec.frame_count,
            label=f"{label}_depth",
        )
    return seq


def _method_from_section(label: str, section, base: Path, codec_timeout: float | None) -> MethodConfig:
    codec_kind = section.get("codec", "mock").strip().lower()
    if codec_kind == "mock":
        codec = MockCodec()
    elif codec_kind == "external":
        codec = ExternalCodec(
            encode_cmd=section.get("encode_cmd", ""),
            decode_cmd=section.get("decode_cmd", ""),
            timeout=codec_timeout,
        )
    else:
        raise ConfigError(f"method {label!r}: unknown codec {codec_kind!r}")

    postproc = None
    if section.get("postproc_net"):
        if not section.get("postproc_weights"):
            raise ConfigError(f"method {label!r}: postproc_net without postproc_weights")
        postproc = PostprocConfig(
            net=_parse_net(section.get("postproc_net"), base),
            weights_by_qp=_parse_weight_map(section.get("postproc_weights"), base),
            luma_only=section.getboolean("postproc_luma_only", True),
        )

    def parsed(parse, key, default=None):  # an empty value is the default, as for up_filter
        text = section.get(key) or default
        try:
            return parse(text) if text else None
        except ConfigError as exc:
            raise ConfigError(f"method {label!r}: {exc}") from None

    return MethodConfig(
        label=label,
        codec=codec,
        scale=parsed(parse_scale, "scale", "1/1"),
        down_filter=parsed(ResampleFilter.parse, "down_filter", "lanczos:3"),
        up_filter=parsed(ResampleFilter.parse, "up_filter"),
        depth_down_filter=parsed(ResampleFilter.parse, "depth_down_filter"),
        qp_texture_offset=section.getint("qp_texture_offset", 0),
        postproc=postproc,
    )


def _timeout(parser, key: str) -> float | None:
    """[run] `key` in seconds, or None when unset."""
    text = parser.get("run", key, fallback=None)
    if text is None:
        return None
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise ConfigError(f"[run] {key} must be a positive number of seconds, got {text!r}")


def _check_keys(parser) -> None:
    """ConfigError for a section or key that no loader reads."""
    for name in parser.sections():
        if name == "metrics":
            continue
        kind = name.partition(".")[0] + "." if "." in name else name
        if kind not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - _SECTION_KEYS[kind] - set(parser.defaults()))
        if unknown:
            raise ConfigError(f"[{name}]: unknown key {', '.join(unknown)}")


def load_experiment(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file."""
    path = Path(path)
    # no interpolation: metric/codec command templates may contain % or {}
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"cannot read experiment config {path}")
    _check_keys(parser)
    base = path.parent
    codec_timeout = _timeout(parser, "codec_timeout")

    sequences = []
    methods = []
    for name in parser.sections():
        if name.startswith("sequence."):
            sequences.append(_sequence_from_section(name[len("sequence."):], parser[name], base))
        elif name.startswith("method."):
            methods.append(_method_from_section(name[len("method."):], parser[name], base, codec_timeout))

    if parser.has_section("qps") and parser["qps"].get("pairs"):
        qp_pairs = _parse_qp_pairs(parser["qps"]["pairs"])
    else:
        qp_pairs = [QpPair(t, d) for t, d in DEFAULT_QP_PAIRS]

    metrics = {"psnr_y": "native"}
    if parser.has_section("metrics"):
        defaults = parser.defaults()  # shared values, not metric ids
        metrics = {k: v.strip() for k, v in parser["metrics"].items() if k not in defaults}
        if not metrics:
            metrics = {"psnr_y": "native"}

    workdir = Path(parser.get("run", "workdir", fallback="rqpipe_out"))
    if not workdir.is_absolute():
        workdir = base / workdir
    cfg = ExperimentConfig(
        sequences=sequences,
        methods=methods,
        qp_pairs=qp_pairs,
        metrics=metrics,
        workdir=workdir,
        psnr_inf_cap=parser.getfloat("run", "psnr_inf_cap", fallback=100.0),
        metric_timeout=_timeout(parser, "metric_timeout"),
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
