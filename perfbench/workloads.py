"""Benchmark workloads and their input generator.

Each workload is one experiment: synthetic 10-bit 4:2:0 sources, a QP
ladder, a set of methods and, when the post-processed method runs, one
seeded random weight file per base QP. Every input comes from the
workload seed, so the same seed gives byte-identical files.

Run as its own process, so that the measured process only receives files:

    python3 perfbench/workloads.py --workload NAME --seed N --out DIR

writes the source YUVs, the weight files and DIR/experiment.ini.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

CONFIG_NAME = "experiment.ini"

# (base texture QP, depth QP) ladders
CTC_LADDER = ((22, 4), (27, 7), (32, 11), (37, 15))
# wide enough that the half-resolution methods' rates overlap the anchor's,
# so every BD comparison is computed
WIDE_LADDER = tuple((qp, qp // 2) for qp in range(6, 54, 6))

ANCHOR, RESCALED, POSTPROC = "anchor", "rescaled", "postproc"

# operations every traced run records, whatever the workload
COMMON_LAYERS = (
    "frame_io.read",
    "frame_io.write",
    "resample.down",
    "resample.up",
    "pipeline.codecs.encode",
    "pipeline.codecs.decode",
    "metrics.psnr",
    "bd_stats.bd",
    "pipeline.config.load",
    "pipeline.manifest.append",
    "pipeline.manifest.hash",
    "pipeline.report.assemble",
    "pipeline.runner.run",
)
CNN_LAYERS = ("postproc_cnn.apply", "postproc_cnn.load_weights")


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    frames: int
    sequences: int
    methods: tuple[str, ...]
    ladder: tuple[tuple[int, int], ...]
    net: tuple[int, int, int, int] | None = None  # build_mfrnet_style arguments

    @property
    def jobs(self) -> int:
        return self.sequences * len(self.methods) * len(self.ladder)

    @property
    def job_frames(self) -> int:
        return self.jobs * self.frames

    @property
    def required_layers(self) -> tuple[str, ...]:
        """Operations a traced run must record at least one call of."""
        return COMMON_LAYERS + (CNN_LAYERS if POSTPROC in self.methods else ())


WORKLOADS = {
    w.name: w
    for w in (
        # The north star's frame size. Lanczos resampling and the mock codec
        # take nearly all the CPU and the CNN does not run. The only workload
        # with large per-job memory (every frame of a job is held at once, so
        # peak RSS grows with frame count) and large resume hashing (source
        # and recon files of every job). 4 frames keep a repetition near 5 s
        # on 2 cores, so a run holds several.
        Workload(
            name="rescaled_1080p10",
            width=1920,
            height=1080,
            frames=4,
            sequences=1,
            methods=(ANCHOR, RESCALED),
            ladder=CTC_LADDER,
        ),
        # The default MFRNet-style cascade (4 blocks x 4 convs, 32 channels,
        # growth 16), luma only. CNN inference takes more than 95% of the
        # CPU, resampling and coding under 2%: this exercises the conv kernel
        # and the whole-plane intermediates at a plane size that still fits
        # in memory, which a paper-resolution plane would not. One frame
        # keeps a repetition near 5 s.
        Workload(
            name="postproc_mfrnet_small",
            width=192,
            height=108,
            frames=1,
            sequences=1,
            methods=(ANCHOR, RESCALED, POSTPROC),
            ladder=CTC_LADDER,
            net=(4, 4, 32, 16),
        ),
        # Many tiny jobs with a tiny network: fixed per-job and per-call cost
        # dominates (runner set-up, manifest appends, artifact hashing,
        # network validation on every apply, per-plane Python overhead in
        # codec and resampler), and tiny numpy calls contend for the GIL
        # across the worker pool. A change that speeds up large planes but
        # adds a fixed cost shows here. 8 sequences x 3 methods x 8 QPs give
        # 192 jobs and 16 BD comparisons in about 4 s.
        Workload(
            name="many_small_jobs",
            width=64,
            height=64,
            frames=8,
            sequences=8,
            methods=(ANCHOR, RESCALED, POSTPROC),
            ladder=WIDE_LADDER,
            net=(1, 1, 4, 4),
        ),
    )
}


def _sub_seed(seed: int, *keys: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _method_section(method: str, wl: Workload) -> str:
    if method == ANCHOR:
        return "[method.anchor]\nscale = 1/1\ncodec = mock\n"
    body = (
        f"[method.{method}]\nscale = 1/2\ndown_filter = lanczos:3\nup_filter = nn\n"
        "qp_texture_offset = -6\ncodec = mock\n"
    )
    if method == POSTPROC:
        weights = ", ".join(f"{qp}=weights_qp{qp}.rqpw" for qp, _ in wl.ladder)
        body += (
            f"postproc_net = mfrnet:{','.join(map(str, wl.net))}\n"
            f"postproc_weights = {weights}\npostproc_luma_only = true\n"
        )
    return body


def generate(wl: Workload, seed: int, out_dir) -> Path:
    """Write every input of `wl` for `seed` into out_dir; returns the config path."""
    from rqpipe import VideoSpec, build_mfrnet_style, random_weights, save_weights, synthetic_sequence, write_sequence

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections = ["[run]\nworkdir = out\n"]
    for i in range(wl.sequences):
        label = f"s{i:02d}"
        spec = VideoSpec(wl.width, wl.height, 10, "420", frame_count=wl.frames, label=label)
        write_sequence(synthetic_sequence(spec, seed=_sub_seed(seed, 0, i)), spec, out / f"{label}.yuv")
        sections.append(
            f"[sequence.{label}]\npath = {label}.yuv\nwidth = {wl.width}\nheight = {wl.height}\n"
            f"bit_depth = 10\nchroma = 420\nframe_count = {wl.frames}\nframe_rate = 30\n"
        )
    if wl.net is not None:
        net = build_mfrnet_style(*wl.net)
        for qp, _ in wl.ladder:
            save_weights(out / f"weights_qp{qp}.rqpw", random_weights(net, seed=_sub_seed(seed, 1, qp)))
    sections.extend(_method_section(m, wl) for m in wl.methods)
    sections.append("[qps]\npairs = " + ", ".join(f"{t}:{d}" for t, d in wl.ladder) + "\n")
    sections.append("[metrics]\npsnr_y = native\n")
    config = out / CONFIG_NAME
    config.write_text("\n".join(sections))
    return config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
