"""CNN post-processing: residual dense blocks applied to decoded planes.

Run: python demos/05_cnn_postprocessing.py
"""

import numpy as np

import rqpipe.postproc_cnn as postproc_cnn
from rqpipe import (
    Frame,
    apply_network,
    build_mfrnet_style,
    mock_encode_decode,
    psnr_y,
    random_weights,
)

# A residual dense block cascade: head conv, blocks of densely connected
# 3x3 convs with 1x1 fusion and block residuals, cross-block feature
# reuse, tail conv, global residual. (4, 4, 32, 16) is the full-size
# layout; a small instance keeps this demo quick.
net = build_mfrnet_style(blocks=2, convs_per_block=2, channels=8, growth=4)
print(f"network: {len(net.layers)} layers, {len(net.conv_layers())} convs, "
      f"{net.meta['blocks']} dense blocks")

params = sum(w.size + b.size for w, b in random_weights(net).values())
print(f"parameters: {params}")

# Weights plug in from any training pipeline via a small binary format;
# here random weights show the mechanics (an identity-ish start: small
# weights + the global residual pass the input mostly through).
weights = random_weights(net, seed=1, scale=0.02)

rng = np.random.default_rng(2)
clean = rng.integers(60, 196, (48, 48)).astype(np.uint8)
(decoded,), _ = mock_encode_decode([Frame(y=clean)], qp=37, bit_depth=8)
enhanced = apply_network(net, weights, decoded.y, 8)

print(f"\ndecoded psnr vs clean:  {psnr_y(Frame(y=clean), Frame(y=decoded.y), 8):.2f} dB")
print(f"enhanced psnr vs clean: {psnr_y(Frame(y=clean), Frame(y=enhanced), 8):.2f} dB "
      f"(random weights, so no gain expected; trained weights go here)")

# apply_network runs the whole graph in one pass of row bands: each value
# keeps a ring of only the rows its readers still read (for a 3x3 conv, its
# band plus the halo rows), so the working set grows with the plane's width,
# not its height. Shrinking the band budget to 16-row bands shows the split
# on this plane. Every conv GEMM covers one output row, so its shape and
# sum order do not depend on the bands, and equality holds by construction
# (checked in tests/test_postproc_cnn.py::TestGemmBanding and TestShortRuns).
budget = postproc_cnn.BAND_BYTES
postproc_cnn.BAND_BYTES = sum(net.storage_plan.stores) * 48 * 4 * 16
try:
    banded = apply_network(net, weights, decoded.y, 8)
finally:
    postproc_cnn.BAND_BYTES = budget
print(f"\nrow bands (16 rows) == whole plane: {np.array_equal(banded, enhanced)}")
full = build_mfrnet_style()
rings = postproc_cnn._schedule(full, (1, 2048, 4096), np.float32).rows
print(f"full-size net, one 4096x2048 plane: rings of {min(rings)} to {max(rings)} rows, "
      f"{sum(c * r for c, r in zip(full.storage_plan.stores, rings)) * 4096 * 4 / 1e6:.0f} MB "
      f"(6.4 GB whole)")

# Inference is deterministic: rerunning produces the identical plane.
again = apply_network(net, weights, decoded.y, 8)
print(f"deterministic rerun: {np.array_equal(again, enhanced)}")
