"""Training loop, evaluation and single-volume inference."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import checkpoint
from .atomic import write_csv
from .checkpoint import load_into_model, save_checkpoint
from .config import TrainConfig, from_flat_dict, to_flat_dict
from .data import (
    AugmentConfig,
    VolumeRecord,
    augment,
    list_dataset,
    load_record,
    preprocess,
    write_rvol,
)
from .errors import InputError
from .model import SegModel
from .optim import AdamWState, adamw_step, lr_schedule
from .seghead import argmax_labels, dice_ce_loss, dice_score, sliding_window_infer
from .tensor import Tensor, recording


def build_model(cfg: TrainConfig) -> SegModel:
    return SegModel.init(cfg)


def model_from_checkpoint(path) -> tuple[SegModel, TrainConfig]:
    """Build the model the checkpoint's config describes and restore it,
    reading the file once.  `load_checkpoint` is looked up on its module, so
    a wrapper installed there (the benchmark's tracer) sees the read."""
    arrays, flat, _ = checkpoint.load_checkpoint(path)
    cfg = from_flat_dict(flat)
    model = build_model(cfg)
    load_into_model(model, arrays, path)
    return model, cfg


def _labelled_records(data_dir, purpose: str) -> list[tuple[str, VolumeRecord]]:
    """(file name, preprocessed record) per volume; each must have labels."""
    records = []
    for vol, lab in list_dataset(data_dir):
        if lab is None:
            raise InputError(f"{vol}: {purpose} requires a label file")
        records.append((Path(vol).name, preprocess(load_record(vol, lab))))
    return records


def _train_record_step(model, rec, cfg, rng, trainable, opt_state, lr):
    aug_cfg = AugmentConfig(
        crop=tuple(cfg.crop),
        flip=cfg.flip,
        contrast=cfg.contrast,
        scale_jitter=cfg.scale_jitter,
    )
    sample = augment(rec, rng, aug_cfg)
    x = Tensor(sample.voxels[None, None])
    with recording() as tape:
        logits = model.forward(x)
        loss = dice_ce_loss(logits, sample.labels[None])
    tape.backward(loss)
    adamw_step(trainable, opt_state, lr, weight_decay=cfg.weight_decay)
    _, mean_dice = dice_score(argmax_labels(logits.data), sample.labels[None], cfg.n_classes)
    return float(loss.data), mean_dice


def train(
    cfg: TrainConfig,
    data_dir,
    out_ckpt,
    metrics_csv=None,
    log: Optional[Callable[[str], None]] = None,
) -> list[dict]:
    """Train for cfg.epochs on every labelled record per epoch; returns the
    metrics rows.

    Fully reproducible: the model init derives from cfg.seed and each
    (epoch, record) pair gets its own pre-assigned RNG stream.
    """
    records = [rec for _, rec in _labelled_records(data_dir, "training")]

    model = build_model(cfg)
    trainable, _ = model.partition()
    opt_state = AdamWState(trainable)

    rows = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.epochs, cfg.lr_start)
        losses, dices = [], []
        for idx, rec in enumerate(records):
            rng = np.random.default_rng((cfg.seed, epoch, idx))
            loss, mean_dice = _train_record_step(
                model, rec, cfg, rng, trainable, opt_state, lr
            )
            losses.append(loss)
            dices.append(mean_dice)
        row = {
            "epoch": epoch,
            "lr": lr,
            "loss": float(np.mean(losses)),
            "mean_dice": float(np.mean(dices)),
        }
        rows.append(row)
        if log is not None:
            log(
                f"epoch {epoch + 1}/{cfg.epochs}  lr {lr:.3e}  loss {row['loss']:.4f}  "
                f"dice {row['mean_dice']:.4f}"
            )

    named = {name: p.data for name, p in model.named_parameters().items()}
    save_checkpoint(out_ckpt, named, to_flat_dict(cfg), cfg.seed)
    if metrics_csv is not None:
        write_metrics_csv(metrics_csv, rows)
    return rows


def write_metrics_csv(path, rows: list[dict]) -> None:
    header = ["epoch", "lr", "loss", "mean_dice"]
    write_csv(path, header, ([row["epoch"], *(f"{row[k]:.10g}" for k in header[1:])] for row in rows))


def evaluate_model(
    model_fn: Callable[[np.ndarray], np.ndarray],
    records: list[tuple[str, VolumeRecord]],
    K: int,
    window: tuple,
) -> list[dict]:
    """Sliding-window Dice per volume plus a trailing mean row."""
    rows = []
    per_class = []
    for name, rec in records:
        result = sliding_window_infer(rec.voxels[None, None], model_fn, window=window)
        scores, mean = dice_score(result.labels, rec.labels[None], K)
        per_class.append(scores)
        rows.append({"volume": name, "scores": scores, "mean": mean})
    stacked = np.stack(per_class)
    rows.append(
        {
            "volume": "mean",
            "scores": stacked.mean(axis=0),
            "mean": float(stacked.mean(axis=0).mean()),
        }
    )
    return rows


def write_eval_csv(path, rows: list[dict], K: int) -> None:
    header = ["volume", *(f"class{k}" for k in range(1, K)), "mean"]
    write_csv(path, header, ([row["volume"], *(f"{s:.6f}" for s in [*row["scores"], row["mean"]])] for row in rows))


def evaluate(ckpt_path, data_dir, out_csv) -> list[dict]:
    """Sliding-window Dice with windows of the training crop."""
    model, cfg = model_from_checkpoint(ckpt_path)
    records = _labelled_records(data_dir, "evaluation")
    rows = evaluate_model(model.predict_logits, records, cfg.n_classes, window=tuple(cfg.crop))
    write_eval_csv(out_csv, rows, cfg.n_classes)
    return rows


def infer_volume(ckpt_path, volume_path, out_path) -> np.ndarray:
    """Segment one volume with windows of the training crop and write the
    labels as a u8 RVOL file."""
    model, cfg = model_from_checkpoint(ckpt_path)
    rec = preprocess(load_record(volume_path))
    result = sliding_window_infer(rec.voxels[None, None], model.predict_logits, window=tuple(cfg.crop))
    labels = result.labels[0]
    write_rvol(out_path, labels, rec.spacing)
    return labels
