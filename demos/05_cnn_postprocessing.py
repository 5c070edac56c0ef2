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
print(f"receptive-field radius: {net.receptive_radius()} pixels")

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

# apply_network bounds its own memory. It estimates the graph's working
# set as peak live channels x H x W x 4 bytes plus one column buffer; over
# a 2 GiB budget, which the full-size net passes at 4096x2048, it runs the
# graph over full-width row strips, each with receptive-radius rows of
# margin above and below, then adds the residual and rounds once.
# Shrinking the budget to 16-row strips shows the split on this plane.
# BLAS fixes the order of the conv sums, so equality is a tested property
# (tests/test_postproc_cnn.py::TestGemmBanding).
live = max(net.storage_plan.live_channels)
budget = postproc_cnn._PLANE_BYTES
postproc_cnn._PLANE_BYTES = postproc_cnn._COLS_BYTES + live * 48 * 4 * (16 + 2 * net.receptive_radius())
try:
    strips = apply_network(net, weights, decoded.y, 8)
finally:
    postproc_cnn._PLANE_BYTES = budget
print(f"\nrow strips (16 rows) == whole plane: {np.array_equal(strips, enhanced)}")
full = build_mfrnet_style()
print(f"full-size net, one 4096x2048 plane whole: "
      f"{max(full.storage_plan.live_channels) * 4096 * 2048 * 4 / 1e9:.1f} GB, so it runs in strips")

# Inference is deterministic: rerunning produces the identical plane.
again = apply_network(net, weights, decoded.y, 8)
print(f"deterministic rerun: {np.array_equal(again, enhanced)}")
