"""The benchmark's workloads and the closed loops that run them.

Each workload is one client in a closed loop: the next step starts when the
previous one has returned.  Its inputs are generated from the workload seed
with `data.make_synthetic_record` and written to disk before anything is
timed; set-up then reads them back through the package's public functions.

A step is one optimizer step for the training workloads and one window (one
model call) for `infer_volume`, whose loop iteration is a whole volume:
read, preprocess, sliding-window inference, label write.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from tpmamba import checkpoint, data, optim, seghead, train
from tpmamba.config import TrainConfig, to_flat_dict
from tpmamba.flops import flops_estimate
from tpmamba.tensor import Tensor, recording

from tracer import MIB, TIME_SUFFIXES, GradCounts, NullTracer, Tracer, is_self_time

SETUP_REPEATS = 3  # model build / checkpoint load and input load, median taken
ADAPTER_PERTURB = 0.02  # half-width of the seeded values put into infer's trainables
PERTURBED = ("raise.", "lora_b", "w_out")  # with "decoder.": must be non-zero in infer


@dataclass
class Workload:
    name: str
    kind: str  # "train" or "infer"
    cfg: TrainConfig
    size: tuple  # extents of the synthetic record on disk
    spacing: tuple  # mm per voxel on disk
    loss_step: int = 1  # the loop iteration whose loss is loss_final


def workloads() -> dict:
    overfit = TrainConfig(
        C=96, n_heads=4, n_blocks=4, adapter_r=24, adapter_scan_mode="tri_plane",
        crop=(32, 96, 96), n_classes=2, seed=0, lr_start=3e-3, weight_decay=1e-2,
        flip=False, contrast=False, scale_jitter=False,
    )
    default = TrainConfig(n_classes=3)
    return {
        "train_overfit": Workload("train_overfit", "train", overfit, (32, 96, 96), (1.0, 1.0, 1.0), loss_step=16),
        "train_deep": Workload("train_deep", "train", default, (96, 96, 96), (1.0, 1.0, 1.0), loss_step=4),
        "infer_volume": Workload("infer_volume", "infer", default, (48, 192, 192), (2.0, 0.75, 0.75)),
    }


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    volume: Path
    labels: Optional[Path] = None
    ckpt: Optional[Path] = None
    truth: Optional[np.ndarray] = None  # infer: labels on the preprocessed grid
    out: Optional[Path] = None  # infer: where the predicted labels go


def prepare_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs; the same seed writes the same bytes."""
    rng = np.random.default_rng(seed)
    rec = data.make_synthetic_record(wl.size, wl.cfg.n_classes, rng)
    volume = workdir / f"case{data.VOLUME_SUFFIX}"
    data.write_rvol(volume, rec.voxels, wl.spacing)
    if wl.kind == "train":
        labels = workdir / f"case{data.LABEL_SUFFIX}"
        data.write_rvol(labels, rec.labels, wl.spacing)
        return Inputs(volume, labels=labels)
    truth = data.preprocess(data.VolumeRecord(rec.voxels, wl.spacing, rec.labels)).labels
    model = train.build_model(wl.cfg)
    for p in model.parameters():
        if p.trainable and (p.name.startswith("decoder.") or any(k in p.name for k in PERTURBED)):
            noise = rng.uniform(-ADAPTER_PERTURB, ADAPTER_PERTURB, p.shape)
            p.data = (p.data + noise).astype(p.data.dtype)
    ckpt = workdir / "model.ckpt"
    named = {name: p.data for name, p in model.named_parameters().items()}
    checkpoint.save_checkpoint(ckpt, named, to_flat_dict(wl.cfg), wl.cfg.seed)
    return Inputs(volume, ckpt=ckpt, truth=truth, out=workdir / f"pred{data.LABEL_SUFFIX}")


# ---------------------------------------------------------------------------
# one client per workload kind


class TrainClient:
    """Mirrors `train.train`'s step: augment, forward, loss, backward, AdamW.

    A loop iteration is one step."""

    root = "step"

    def __init__(self, wl: Workload, inputs: Inputs, seed: int):
        self.cfg = wl.cfg
        self.seed = seed
        self.rec = data.preprocess(data.load_record(inputs.volume, inputs.labels))
        self.model = train.build_model(self.cfg)
        self.trainable, _ = self.model.partition()
        self.opt = optim.AdamWState(self.trainable)
        self.aug = data.AugmentConfig(
            crop=tuple(self.cfg.crop), flip=self.cfg.flip,
            contrast=self.cfg.contrast, scale_jitter=self.cfg.scale_jitter,
        )
        self.voxels_per_iteration = math.prod(self.cfg.crop)
        self.step_times: list = []

    def run(self, i: int, tr=NullTracer()) -> dict:
        """Training step `i` with its own RNG stream, as `train.train` gives each step."""
        cfg = self.cfg
        t0 = time.perf_counter()
        sample = data.augment(self.rec, np.random.default_rng((self.seed, i)), self.aug)
        x = Tensor(sample.voxels[None, None].astype(np.float32))
        m0 = tr.mem()
        with recording() as tape:
            with tr.span("model.forward"):
                logits = self.model.forward(x)
            loss = seghead.dice_ce_loss(logits, sample.labels[None].astype(np.int64))
        retained = tr.mem() - m0
        with tr.span("tensor.backward", "call"):
            tape.backward(loss)
        optim.adamw_step(self.trainable, self.opt, cfg.lr_start, weight_decay=cfg.weight_decay)
        seghead.dice_score(logits.data.argmax(axis=1), sample.labels[None], cfg.n_classes)
        self.step_times.append(time.perf_counter() - t0)
        return {"loss": loss.data, "logits": logits.data, "nodes": len(tape), "tape_retained": retained}

    def check(self, out: dict) -> Optional[str]:
        if not np.isfinite(out["loss"]):
            return f"non-finite loss {out['loss']}"
        if not np.all(np.isfinite(out["logits"])):
            return "non-finite logits"
        return None

    def loss(self, out: dict) -> float:
        return float(out["loss"])

    def warmup(self) -> None:
        error = self.check(self.run(0))
        if error:
            raise RuntimeError(f"warm-up step failed: {error}")


class InferClient:
    """Mirrors `train.infer_volume`: checkpoint in, labels RVOL out.

    A loop iteration is one whole volume: read, preprocess, sliding-window
    inference, label write.  Its steps are the windows (model calls)."""

    root = "iteration"

    def __init__(self, wl: Workload, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.model, self.cfg = train.model_from_checkpoint(inputs.ckpt)
        zero = [p.name for p in self.model.parameters() if any(k in p.name for k in PERTURBED) and not p.data.any()]
        if zero:
            raise RuntimeError(f"checkpoint adapter tensors are all zero: {zero[:3]}")
        self.rec = data.preprocess(data.load_record(inputs.volume))
        self.window = tuple(self.cfg.crop)
        self.voxels_per_iteration = math.prod(wl.size)
        self.step_times: list = []

    def run(self, i: int, tr=NullTracer()) -> dict:
        def model_call(patch):
            with tr.span("model.forward"):
                t0 = time.perf_counter()
                logits = self.model.predict_logits(patch)
                self.step_times.append(time.perf_counter() - t0)
            return logits

        rec = data.preprocess(data.load_record(self.inputs.volume))
        result = seghead.sliding_window_infer(rec.voxels[None, None].astype(np.float32), model_call, window=self.window)
        labels = result.labels[0].astype(np.uint8)
        data.write_rvol(self.inputs.out, labels, rec.spacing)
        return {"logits": result.logits, "labels": labels}

    def check(self, out: dict) -> Optional[str]:
        if not np.all(np.isfinite(out["logits"])):
            return "non-finite logits"
        if out["labels"].shape != self.rec.voxels.shape:
            return f"label grid {out['labels'].shape} != volume {self.rec.voxels.shape}"
        if out["labels"].max() >= self.cfg.n_classes:
            return f"label {out['labels'].max()} outside [0, {self.cfg.n_classes})"
        return None

    def loss(self, out: dict) -> float:
        """Cross-entropy of the blended logits against the synthetic truth."""
        lg = out["logits"][0]
        m = lg.max(axis=0)
        lse = m + np.log(np.exp(lg - m).sum(axis=0))
        picked = np.take_along_axis(lg, self.inputs.truth[None].astype(np.intp), axis=0)[0]
        return float((lse - picked).mean())

    def warmup(self) -> None:
        first = self.rec.voxels[None, None, : self.window[0], : self.window[1], : self.window[2]]
        if not np.all(np.isfinite(self.model.predict_logits(first.astype(np.float32)))):
            raise RuntimeError("warm-up window gave non-finite logits")


def make_client(wl: Workload, inputs: Inputs, seed: int):
    return (TrainClient if wl.kind == "train" else InferClient)(wl, inputs, seed)


# ---------------------------------------------------------------------------
# closed loops


@dataclass
class Loop:
    """What one closed loop measured; a step is an optimizer step or a window."""

    step_times: list = field(default_factory=list)
    iteration_times: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    iterations: int = 0
    voxels: int = 0
    tape_retained: int = 0  # traced bytes the tapes held after forward + loss
    attempted: int = 0
    failed: int = 0


def run_loop(client, seconds: float, min_iterations: int = 1,
             iterations: Optional[int] = None, tr=NullTracer(), ranges=None) -> Loop:
    """Iterate until `seconds` have passed and `min_iterations` are done, or
    exactly `iterations` times.

    Checks run outside the timed part of each iteration.  An iteration that
    raises or fails its check counts all its steps as failed, never drops them.
    """
    loop = Loop()
    t_phase = time.perf_counter()
    while True:
        loop.iterations += 1
        before = len(client.step_times)
        root = tr.root(client.root, ranges) if ranges is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                out = client.run(loop.iterations, tr)
            error = None
        except Exception as e:  # counted as failed below
            out, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        steps = client.step_times[before:]
        loop.attempted += max(len(steps), 1)
        error = error or client.check(out)
        if error:
            loop.failed += max(len(steps), 1)
            print(f"step failed: {error}", file=sys.stderr)
        else:
            loop.step_times.extend(steps)
            loop.iteration_times.append(dt)
            loop.losses.append(client.loss(out))
            loop.voxels += client.voxels_per_iteration
            loop.tape_retained += out.get("tape_retained", 0)
        if iterations is not None:
            if loop.iterations >= iterations:
                return loop
        elif time.perf_counter() - t_phase >= seconds and loop.iterations >= min_iterations:
            return loop


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, but never below the median.  Below 20 samples no percentile
    above the median has 10 beyond it, so the median is reported."""
    n = len(values)
    q = max(50, math.floor(100 * (n - 10) / n))
    return float(np.percentile(values, q)), q


def _median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: Path, import_s: float) -> dict:
    """End-to-end metrics: set-up, step times, throughput, memory, loss."""
    inputs = prepare_inputs(wl, seed, workdir)
    setups = []
    client = None
    for _ in range(SETUP_REPEATS):
        client = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        client = make_client(wl, inputs, seed)
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    client.warmup()
    warmup_s = time.perf_counter() - t0
    loop = run_loop(client, seconds, min_iterations=wl.loss_step)

    tail_s, tail_q = tail(loop.step_times) if loop.step_times else (float("nan"), 0)
    loss_final = loop.losses[wl.loss_step - 1] if len(loop.losses) >= wl.loss_step else float("nan")
    metrics = {
        "setup_s": import_s + statistics.median(setups) + warmup_s,
        "step_s.p50": _median_or_nan(loop.step_times),
        "step_s.tail": tail_s,
        "voxels_per_s": loop.voxels / sum(loop.iteration_times) if loop.iteration_times else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_final": loss_final,
    }
    notes = {
        "fail_ratio": loop.failed / loop.attempted,
        "steps": len(loop.step_times),
        "tail_percentile": tail_q,
        "setup_parts_s": {"import": import_s, "median_build_and_load": statistics.median(setups), "warmup": warmup_s},
        "losses": loop.losses,
    }
    return {"metrics": metrics, "notes": notes, "attempted": loop.attempted, "failed": loop.failed,
            "correct": loop.failed == 0 and all(math.isfinite(v) for v in metrics.values())}


def run_traced(wl: Workload, seed: int, seconds: float, workdir: Path, trace_path: Optional[Path]) -> dict:
    """Per-layer metrics: an untraced reference pass, then the same steps traced.

    Both passes start from a fresh set-up and run the same step indices, so
    their losses must be bit-identical; their step-time ratio is the tracing
    overhead.  Per-layer values are per step (per window for infer_volume),
    except checkpoint.load.s, which is per set-up.
    """
    inputs = prepare_inputs(wl, seed, workdir)
    client = make_client(wl, inputs, seed)
    client.warmup()
    plain = run_loop(client, seconds / 2, min_iterations=2)
    client = None

    tr = Tracer()
    setup_ranges, step_ranges, memory_ranges = [], [], []
    with tr.installed():
        with tr.root("setup", setup_ranges):
            client = make_client(wl, inputs, seed)
        with tr.root("warmup", []):
            client.warmup()
        tr.grads = GradCounts()
        traced = run_loop(client, seconds, iterations=plain.iterations, tr=tr, ranges=step_ranges)
        grads, tr.grads = tr.grads, GradCounts()
        with tr.tracing_memory():
            memory = run_loop(client, seconds, iterations=1, tr=tr, ranges=memory_ranges)
    if trace_path is not None:
        tr.dump(trace_path)

    steps = max(len(traced.step_times), 1)  # all-failed runs report zeros, not a crash
    totals = tr.totals(step_ranges)
    metrics = {k: v / steps for k, v in totals.items() if k.endswith(TIME_SUFFIXES)}
    metrics["tensor.tape.nodes"] = totals["tensor.tape.nodes"] / steps
    metrics["checkpoint.load.s"] = tr.totals(setup_ranges)["checkpoint.load.s"]
    memory_steps = max(len(memory.step_times), 1)
    for k, v in tr.totals(memory_ranges).items():
        if k.endswith(".retained_mb"):
            metrics[k] = v / memory_steps
    metrics["tensor.tape.retained_mb"] = memory.tape_retained / MIB / memory_steps
    metrics["tensor.backward.grads_computed"] = grads.computed / steps
    metrics["tensor.backward.grads_used"] = grads.used / steps
    metrics["tensor.backward.grad_use_ratio"] = grads.used / grads.computed if grads.computed else 0.0
    metrics["tensor.backward.discarded_mb"] = grads.discarded_bytes / MIB / steps
    cfg = wl.cfg
    flops = totals["triplane.tp_mamba_forward.calls"] * flops_estimate("tp_mamba", tuple(cfg.crop), cfg.C, cfg.adapter_r)
    adapter_s = totals["triplane.tp_mamba_forward.incl_s"]
    metrics["triplane.tp_mamba_forward.gflop_per_s"] = flops / adapter_s / 1e9 if adapter_s else 0.0
    metrics["trace.overhead_ratio"] = _median_or_nan(traced.step_times) / _median_or_nan(plain.step_times)

    self_sum = sum(v for k, v in totals.items() if is_self_time(k))
    root_sum = sum(tr.spans[first].duration for first, _ in step_ranges)
    problems = []
    if traced.losses != plain.losses:
        problems.append(f"traced losses {traced.losses} differ from untraced {plain.losses}")
    if abs(self_sum - root_sum) > 1e-6 * max(root_sum, 1e-9):
        problems.append(f"span self times sum to {self_sum} s, steps took {root_sum} s")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    notes = {"steps": steps, "losses_untraced": plain.losses, "losses_traced": traced.losses,
             "spans": len(tr.spans), "retained_mb": "from one extra step run under tracemalloc"}
    failed = plain.failed + traced.failed + memory.failed
    return {"metrics": metrics, "notes": notes, "attempted": plain.attempted + traced.attempted + memory.attempted,
            "failed": failed, "correct": failed == 0 and not problems}
