"""Command-line interface: gen-synth, train, eval, infer, check, bench-flops."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .atomic import write_csv
from .config import TrainConfig, load_config
from .data import gen_synth
from .errors import CheckpointError, ConfigError, InputError, NumericError, ShapeError
from .flops import ADAPTER_KINDS, flops_sweep, gflops_estimate


def _parse_size(text: str) -> tuple:
    parts = [int(t) for t in text.split(",") if t.strip()]
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) == 3:
        return tuple(parts)
    raise ConfigError(f"--size expects one extent or D,H,W, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    from .selfcheck import SUITES

    parser = argparse.ArgumentParser(prog="tpmamba")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="write a deterministic synthetic dataset")
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--size", type=_parse_size, default=(64, 64, 64))
    g.add_argument("--classes", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train on an RVOL dataset directory")
    t.add_argument("--config", default=None, help="flat key=value config file")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--metrics", default=None, help="metrics CSV path (default: <out>.metrics.csv)")
    t.add_argument("--epochs", type=int, default=None, help="override the configured epoch count")
    t.add_argument("--seed", type=int, default=None, help="override the configured seed")
    t.add_argument("--quiet", action="store_true")

    e = sub.add_parser("eval", help="evaluate a checkpoint on labelled volumes")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True, help="per-volume Dice CSV")

    i = sub.add_parser("infer", help="segment one RVOL volume")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--volume", required=True)
    i.add_argument("--out", required=True, help="label RVOL output path")

    c = sub.add_parser("check", help="run the built-in verification suites")
    c.add_argument("--suite", choices=[*SUITES, "all"], default="all")

    b = sub.add_parser("bench-flops", help="analytic per-block adapter flop counts")
    b.add_argument("--input", type=_parse_size, default=(96, 96, 96), help="D,H,W")
    b.add_argument("--dim", type=int, default=768, help="backbone feature width")
    b.add_argument("--rank", type=int, default=96, help="adapter rank")
    b.add_argument("--out", default=None, help="CSV path for the depth-doubling sweep")
    return parser


# Exit code of a command that a package error ends; 1 is a failed check and
# 2 an argparse usage error.  Any other exception keeps its traceback.
_EXIT_CODES = {ConfigError: 3, InputError: 4, CheckpointError: 5, NumericError: 6, ShapeError: 7}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except tuple(_EXIT_CODES) as e:
        print(f"tpmamba: error: {e}", file=sys.stderr)
        return _EXIT_CODES[type(e)]


def _run(args) -> int:
    if args.command == "gen-synth":
        names = gen_synth(args.n, args.size, args.classes, args.seed, args.out)
        print(f"wrote {len(names)} volume/label pairs to {args.out}")
        return 0

    if args.command == "train":
        from .train import train

        cfg = load_config(args.config) if args.config else TrainConfig()
        # the overrides go through TrainConfig's checks, as the file's values do
        if args.epochs is not None:
            cfg = dataclasses.replace(cfg, epochs=args.epochs)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        metrics = args.metrics if args.metrics else args.out + ".metrics.csv"
        log = None if args.quiet else print
        rows = train(cfg, args.data, args.out, metrics_csv=metrics, log=log)
        print(f"final loss {rows[-1]['loss']:.4f}  train dice {rows[-1]['mean_dice']:.4f}")
        print(f"checkpoint: {args.out}\nmetrics: {metrics}")
        return 0

    if args.command == "eval":
        from .train import evaluate

        rows = evaluate(args.ckpt, args.data, args.out)
        mean_row = rows[-1]
        print(f"mean dice {mean_row['mean']:.4f} over {len(rows) - 1} volumes -> {args.out}")
        return 0

    if args.command == "infer":
        from .train import infer_volume

        labels = infer_volume(args.ckpt, args.volume, args.out)
        print(f"wrote labels {labels.shape} to {args.out}")
        return 0

    if args.command == "check":
        from .selfcheck import run_suite

        results = run_suite(args.suite)
        failed = 0
        for name, ok, detail in results:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"[{status}] {name}{suffix}")
            failed += 0 if ok else 1
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1

    if args.command == "bench-flops":
        for kind in ADAPTER_KINDS:
            val = gflops_estimate(kind, args.input, args.dim, args.rank)
            print(f"{kind:>15}: {val:10.4f} GFlops per block")
        if args.out:
            sweep = flops_sweep(args.input, args.dim, args.rank)
            sizes = ["D", "H", "W", "tokens"]
            rows = ([*(row[k] for k in sizes), *(f"{row[k]:.6f}" for k in ADAPTER_KINDS)] for row in sweep)
            write_csv(args.out, sizes + list(ADAPTER_KINDS), rows)
            print(f"sweep CSV: {args.out}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
