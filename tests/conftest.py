import pytest

from rqpipe import VideoSpec, build_mfrnet_style, random_weights, save_weights, synthetic_sequence, write_sequence
from rqpipe import bands, metrics, resample
from rqpipe.pipeline import codecs


@pytest.fixture
def band_budget(monkeypatch):
    """budget(n) sets the row-band budget to n bytes and returns the list of
    band splits that the kernels then make, one list of (first, end) per
    row_bands call."""
    splits = []

    def spy(rows, row_bytes):
        splits.append(bands.row_bands(rows, row_bytes))
        return splits[-1]

    for module in (resample, codecs, metrics):
        monkeypatch.setattr(module, "row_bands", spy)

    def budget(nbytes):
        monkeypatch.setattr(bands, "BAND_BYTES", nbytes)
        splits.clear()
        return splits

    return budget


@pytest.fixture
def experiment_dir(tmp_path):
    """Workspace with a tiny synthetic sequence, a small net, and a config
    running anchor / rescaled / postproc methods over four QP pairs."""
    spec = VideoSpec(64, 64, 8, "420", frame_count=8, label="synthA")
    write_sequence(synthetic_sequence(spec, seed=1), spec, tmp_path / "synthA.yuv")

    net = build_mfrnet_style(1, 1, 4, 4)
    (tmp_path / "net.json").write_text(net.to_json())
    for qp in (22, 27, 32, 37):
        save_weights(tmp_path / f"w{qp}.rqpw", random_weights(net, seed=qp, scale=0.02))

    body = """
[run]
workdir = out

[sequence.synthA]
path = synthA.yuv
width = 64
height = 64
bit_depth = 8
chroma = 420
frame_count = 8
frame_rate = 30

[method.anchor]
scale = 1/1
codec = mock

[method.rescaled]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
qp_texture_offset = -6
codec = mock

[method.postproc]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
qp_texture_offset = -6
codec = mock
postproc_net = net.json
postproc_weights = 22=w22.rqpw, 27=w27.rqpw, 32=w32.rqpw, 37=w37.rqpw

[qps]
pairs = 22:4, 27:7, 32:11, 37:15

[metrics]
psnr_y = native
"""
    (tmp_path / "exp.ini").write_text(body)
    # same experiment with a widened ladder (extra low/high-rate pairs, as
    # benchmark setups add to stretch the measured range): at desk scale the
    # mock codec needs the wider anchor span for the method rate ranges to
    # overlap, which BD integration requires
    (tmp_path / "exp_wide.ini").write_text(
        body.replace("pairs = 22:4, 27:7, 32:11, 37:15", "pairs = 8:2, 22:4, 32:11, 45:15")
        .replace("workdir = out", "workdir = out_wide")
    )
    return tmp_path
