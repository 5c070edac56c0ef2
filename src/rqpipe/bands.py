"""Row bands: how the per-plane kernels bound their scratch.

Lanczos resampling, the mock codec's transform and the MSE run over a
plane in bands of rows under BAND_BYTES, so each holds its result plus
scratch for one band instead of whole float64 planes. The CNN runs its
whole graph in bands of input rows, as many as fit one row of each of its
stores in BAND_BYTES, and rounds its output in bands under it; its convs
split their GEMM output into chunks of rows under it too. For the default
net that plans (postproc_cnn.planned_bytes) about 27 MiB at 1080p and
57 MiB at 4096x2048, rings of a few rows and one conv run's slab and
GEMM output, against 1.6 and 6.4 GB for whole-plane values. Every sample
of a band is computed as it would be in one whole-plane pass, so the
split never changes a result.
"""

from __future__ import annotations

# upper bound on the float64 scratch of one band. At 1 MB a band stays in
# the L2 cache, and a band of a 1080p plane still holds 54 to 68 rows,
# enough to spread the fixed cost of each numpy or scipy call
BAND_BYTES = 1 << 20


def row_bands(rows: int, row_bytes: int, budget: int | None = None) -> list[tuple[int, int]]:
    """Split `rows` units of `row_bytes` scratch each into equal bands.

    Returns (first, end) pairs of as few bands as keep each within
    `budget` bytes (BAND_BYTES when None; a band has at least one unit),
    their sizes differing by at most one, so no band is a thin remainder.
    """
    budget = BAND_BYTES if budget is None else budget
    count = max(1, -(-rows // max(1, budget // max(1, row_bytes))))
    return [(rows * i // count, rows * (i + 1) // count) for i in range(count)]
