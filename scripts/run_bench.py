#!/usr/bin/env python3
"""Run the full attack battery against each built-in surface kind.

Generates one reference surface per kind, embeds the same random watermark
into each, runs the benchmark battery, and leaves one report directory per
kind under --out-dir (plus the shared watermark and the clean models).
"""
import argparse
from pathlib import Path

import numpy as np

from gridmark.cli import main as gridmark
from gridmark.model_io import WatermarkBitmap, generate_model, save_model, save_watermark

# "plane" is left out by default (--kinds plane runs it): a flat sheet gives
# every block the same features and so the same fuzzy weight, so its rows
# say nothing about the perceptual weighting the battery is there to test.
DEFAULT_KINDS = ("bumps", "harmonic", "meshgrid")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256, help="grid side length")
    ap.add_argument("--w", type=int, default=32, help="watermark side length")
    ap.add_argument("--seed", type=int, default=0, help="surface generation seed")
    ap.add_argument("--wm-seed", type=int, default=11, help="watermark bit seed")
    ap.add_argument("--kinds", nargs="+", default=list(DEFAULT_KINDS))
    ap.add_argument("--out-dir", default="bench_out")
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    wm_path = out / "watermark.pbm"
    bits = np.random.default_rng(args.wm_seed).integers(
        0, 2, size=(args.w, args.w), dtype=np.uint8
    )
    save_watermark(WatermarkBitmap(bits), wm_path)

    for kind in args.kinds:
        model_path = out / f"{kind}.grid3"
        save_model(generate_model(kind, args.n, seed=args.seed), model_path)
        code = gridmark(
            [
                "bench",
                "--model", str(model_path),
                "--watermark", str(wm_path),
                "--out-dir", str(out / kind),
            ]
        )
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
