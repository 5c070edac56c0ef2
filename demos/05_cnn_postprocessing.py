"""CNN post-processing: residual dense blocks applied to decoded planes.

Run: python demos/05_cnn_postprocessing.py
"""

import numpy as np

from rqpipe import (
    Frame,
    apply_network,
    build_mfrnet_style,
    mock_encode_decode,
    psnr_y,
    random_weights,
    tiled_apply,
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

# Large planes run tile by tile within a memory budget; with margins at
# least the receptive radius, each tile sees the same inputs as the
# whole-plane run. BLAS fixes the order of the conv sums, so equality is
# a tested property (tests/test_postproc_cnn.py::TestGemmBanding).
tiled = tiled_apply(net, weights, decoded.y, 8, tile=16)
print(f"\ntiled (16px tiles) == untiled: {np.array_equal(tiled, enhanced)}")

# Inference is deterministic: rerunning produces the identical plane.
again = apply_network(net, weights, decoded.y, 8)
print(f"deterministic rerun: {np.array_equal(again, enhanced)}")
