"""rqpipe: resolution-adaptation coding toolkit with rate-quality evaluation.

Library layers, bottom up: raw frame IO, spatial resampling, quality
metrics, Bjontegaard-delta statistics, CNN post-processing inference,
and an experiment pipeline that ties them together around a codec.
"""

__version__ = "0.1.0"

from .bd_stats import BdResult, RQCurve, RQPoint, bd_quality, bd_rate, integrate_interpolant, pchip_slopes
from .frame_io import (
    C400,
    C420,
    Frame,
    VideoSpec,
    frame_size_bytes,
    parse_spec_string,
    read_frame,
    read_sequence,
    write_sequence,
)
from .metrics import QualityScore, external_metric, mse_plane, psnr_y, psnr_y_sequence
from .postproc_cnn import (
    NetworkSpec,
    apply_network,
    build_mfrnet_style,
    conv2d,
    load_weights,
    random_weights,
    save_weights,
    tiled_apply,
)
from .resample import (
    LANCZOS3,
    NEAREST,
    ResampleFilter,
    lanczos_weight,
    parse_scale,
    resample_frame,
    resample_plane,
)
from .pipeline import (
    DEFAULT_QP_PAIRS,
    HALF_RES_QP_OFFSET,
    MethodConfig,
    QpPair,
    RunManifest,
    assemble_report,
    dump_patch,
    load_experiment,
    mock_encode_decode,
    run_experiment,
)
from .synthetic import synthetic_sequence
