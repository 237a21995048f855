#!/usr/bin/env python3
"""End-to-end demo: synthesize one volume, overfit the toy model, evaluate.

Mirrors the overfit acceptance check but prints progress; finishes in a few
minutes on one CPU core.

    python3 scripts/overfit_demo.py --workdir /tmp/tpmamba_demo --steps 200
"""

import argparse
import os
import sys
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tpmamba.config import TrainConfig  # noqa: E402
from tpmamba.data import gen_synth  # noqa: E402
from tpmamba.train import evaluate, train  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", default="/tmp/tpmamba_demo")
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    work = Path(args.workdir)
    data = work / "data"
    gen_synth(1, (32, 96, 96), 2, seed=args.seed, out_dir=data)
    print(f"dataset: {data}")

    cfg = TrainConfig(
        C=96, n_heads=4, n_blocks=4, adapter_r=24, adapter_scan_mode="tri_plane",
        crop=(32, 96, 96), n_classes=2, seed=0, lr_start=3e-3, weight_decay=1e-2,
        flip=False, contrast=False, scale_jitter=False, epochs=args.steps,
    )
    ckpt = work / "overfit.ckpt"
    rows = train(cfg, data, ckpt, metrics_csv=work / "metrics.csv", log=print)
    print(f"final train dice: {rows[-1]['mean_dice']:.4f}")

    eval_rows = evaluate(ckpt, data, work / "eval.csv")
    print(f"sliding-window dice on the training volume: {eval_rows[-1]['mean']:.4f}")


if __name__ == "__main__":
    main()
