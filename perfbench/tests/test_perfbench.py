"""Tests of the benchmark's tracer and workloads, on toy-sized models.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads as W  # noqa: E402
from tpmamba import checkpoint, data, encoder, model, ops, optim, seghead, ssm, tensor, train, triplane  # noqa: E402
from tpmamba.config import TrainConfig  # noqa: E402
from tracer import Tracer, is_self_time  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _toy_cfg(**kw):
    base = dict(
        C=8, n_heads=2, n_blocks=4, adapter_r=4, adapter_d_state=2, lora_rank=2,
        lora_alpha=2.0, crop=(16, 32, 32), n_classes=2, seed=2, lr_start=3e-3,
        weight_decay=1e-2, flip=False, contrast=False, scale_jitter=False,
    )
    base.update(kw)
    return TrainConfig(**base)


TOY_TRAIN = W.Workload("toy_train", "train", _toy_cfg(flip=True, contrast=True, scale_jitter=True),
                       (16, 32, 32), (1.0, 1.0, 1.0), loss_step=2)
TOY_INFER = W.Workload("toy_infer", "infer", _toy_cfg(n_classes=3), (8, 48, 48), (2.0, 0.75, 0.75))


def _traced_steps(wl, tmp_path, seed=5, n=2):
    """Fresh client, warm-up, then `n` traced steps; returns (tracer, ranges, outs, walls)."""
    inputs = W.prepare_inputs(wl, seed, tmp_path)
    client = W.make_client(wl, inputs, seed)
    client.warmup()
    tr = Tracer()
    ranges, outs, walls = [], [], []
    with tr.installed():
        for i in range(1, n + 1):
            t0 = time.perf_counter()
            with tr.root("step", ranges):
                outs.append(client.run(i, tr))
            walls.append(time.perf_counter() - t0)
    return tr, ranges, outs, walls


def test_tracing_leaves_losses_bit_identical(tmp_path):
    inputs = W.prepare_inputs(TOY_TRAIN, 3, tmp_path)
    plain = W.make_client(TOY_TRAIN, inputs, 3)
    plain_losses = [float(plain.run(i)["loss"]) for i in range(4)]
    tr, _, outs, _ = _traced_steps(TOY_TRAIN, tmp_path, seed=3, n=3)
    # _traced_steps warms up with step 0, so its steps are indices 1..3
    assert [float(o["loss"]) for o in outs] == plain_losses[1:]


def test_every_node_lands_in_a_span_and_self_times_sum_to_the_step(tmp_path):
    tr, ranges, outs, walls = _traced_steps(TOY_TRAIN, tmp_path)
    for (first, end), out, wall in zip(ranges, outs, walls):
        spans = tr.spans[first:end]
        assert sum(s.nodes for s in spans) == out["nodes"] > 0
        root = spans[0]
        assert sum(s.self_s for s in spans) == pytest.approx(root.duration, rel=1e-9)
        assert root.duration == pytest.approx(wall, rel=0.02)
        # nodes recorded outside any named span are booked as "other"
        named = {s.metric for s in spans if s.nodes}
        assert named and all(m.endswith(".fwd_s") or m == "other.s" for m in named)
    totals = tr.totals(ranges)
    self_sum = sum(v for k, v in totals.items() if is_self_time(k))
    assert self_sum == pytest.approx(sum(tr.spans[f].duration for f, _ in ranges), rel=1e-9)
    assert totals["other.s"] > 0


def test_gradient_counters_repeat_exactly(tmp_path):
    counts = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        tr, _, _, _ = _traced_steps(TOY_TRAIN, workdir, n=2)
        g = tr.grads
        counts.append((g.computed, g.used, g.discarded_bytes))
    assert counts[0] == counts[1]
    computed, used, _ = counts[0]
    assert computed % 2 == 0 and used % 2 == 0  # identical graphs in both steps
    assert 0 < used < computed


def test_seed_changes_inputs_not_shapes(tmp_path):
    for wl in W.workloads().values():
        loaded = []
        for seed in (1, 2):
            workdir = tmp_path / f"{wl.name}-{seed}"
            workdir.mkdir()
            inputs = W.prepare_inputs(wl, seed, workdir)
            loaded.append(data.load_record(inputs.volume, inputs.labels))
        a, b = loaded
        assert a.voxels.shape == b.voxels.shape == tuple(wl.size)
        assert not np.array_equal(a.voxels, b.voxels)
        assert a.spacing == b.spacing == pytest.approx(wl.spacing)


def test_same_seed_gives_same_inputs(tmp_path):
    blobs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        inputs = W.prepare_inputs(TOY_INFER, 9, workdir)
        blobs.append((inputs.volume.read_bytes(), inputs.ckpt.read_bytes()))
    assert blobs[0] == blobs[1]


def test_uninstall_restores_every_patched_function():
    modules = (checkpoint, data, encoder, model, ops, optim, seghead, ssm, tensor, train, triplane)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    tr = Tracer()
    with tr.installed():
        assert triplane.conv3d is not ops.conv3d
        assert encoder.linear is not tensor.linear
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    runs = {}
    for wl in (TOY_TRAIN, TOY_INFER):
        workdir = tmp_path_factory.mktemp(wl.name)
        runs[wl.name] = (W.run_untraced(wl, 4, 0.0, workdir, import_s=0.1), W.run_traced(wl, 4, 0.0, workdir, None))
    return runs


def test_untraced_runs_report_every_end_to_end_metric(toy_runs):
    for untraced, _ in toy_runs.values():
        assert untraced["correct"] and untraced["failed"] == 0
        assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(v > 0 for v in untraced["metrics"].values())


def test_traced_runs_produce_every_per_layer_metric(toy_runs):
    produced = set()
    for _, traced in toy_runs.values():
        assert traced["correct"] and traced["failed"] == 0
        assert traced["notes"]["losses_traced"] == traced["notes"]["losses_untraced"]
        produced |= set(traced["metrics"])
    missing = {m["name"] for m in SPEC["per_layer"]} - produced
    assert not missing, f"listed per-layer metrics no workload produces: {sorted(missing)}"


def test_infer_checkpoint_adapters_are_nonzero(tmp_path):
    inputs = W.prepare_inputs(TOY_INFER, 1, tmp_path)
    client = W.make_client(TOY_INFER, inputs, 1)
    adapters = [p for p in client.model.parameters() if any(k in p.name for k in W.PERTURBED)]
    assert adapters and all(p.data.any() for p in adapters)
    out = client.run(1)
    assert client.check(out) is None
    assert out["labels"].shape == client.rec.voxels.shape
    assert len(client.step_times) == 4


def test_tail_uses_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))
    value, q = W.tail(values)
    assert q == 75 and sum(v > value for v in values) >= 10
    assert W.tail([1.0, 3.0, 2.0]) == (2.0, 50)
