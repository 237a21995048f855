"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the overfit criterion dominates the runtime (a few minutes).
"""

import dataclasses
import time

import numpy as np
import pytest

from model_helpers import param_count_adapter, scan_in_mode, with_sequential_scan, without_adapters
from tpmamba.config import TrainConfig
from tpmamba.data import VolumeRecord, gen_synth, preprocess
from tpmamba.encoder import Encoder, encoder_forward
from tpmamba.flops import gflops_estimate
from tpmamba.selfcheck import (
    GRAD_CASES,
    SCAN_MULTI_TILE,
    SCAN_TOLERANCE,
    TOY,
    adapter_case,
    plane_roundtrip_exact,
    run_grad_case,
    scan_oracle_errors,
)
from tpmamba.ssm import SSMParams, mamba_block_forward, scan_tile_steps
from tpmamba.tensor import Tensor
from tpmamba.train import train
from tpmamba.triplane import TPMambaAdapter, plane_flatten, plane_unflatten, tp_mamba_forward


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_1_scan_oracle_equivalence():
    b, L, E, N = SCAN_MULTI_TILE
    tiles = -(-L // scan_tile_steps(b, L, E, N))
    assert tiles >= 3
    start = time.perf_counter()
    worst, exact = scan_oracle_errors(2024, 100)
    elapsed = time.perf_counter() - start
    assert exact
    for key, tol in SCAN_TOLERANCE.items():
        assert worst[key] < tol
    assert elapsed < 30.0
    _report(
        1,
        f"scan equivalence on 100 random configs and one of {tiles} tiles: forward bit-identical, "
        f"f32 err {worst['f32']:.2e}, f64 err {worst['f64']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    results = {case.name: run_grad_case(case) for case in GRAD_CASES}
    elapsed = time.perf_counter() - start
    for case in GRAD_CASES:
        assert results[case.name] < case.tolerance, f"{case.name}: {results[case.name]}"
    assert elapsed < 120.0
    worst = max(results, key=results.get)
    _report(2, f"gradient table ({len(results)} cases), worst {worst} = {results[worst]:.2e}, {elapsed:.1f}s")


def test_criterion_3_init_transparency():
    rng = np.random.default_rng(11)
    enc = Encoder.init(dataclasses.replace(TOY, crop=(3, 32, 32)), rng).astype(np.float32)
    for i in range(5):
        X = Tensor(rng.standard_normal((1, 1, 3, 32, 32)).astype(np.float32))
        on = encoder_forward(X, enc)
        off = without_adapters(encoder_forward, X, enc)
        for a, b in zip(on, off):
            assert np.array_equal(a.data, b.data)
    _report(3, "fresh adapters + LoRA leave all 4 encoder taps bit-identical on 5 inputs")


def test_criterion_4_triplane_bijectivity_and_sum():
    assert plane_roundtrip_exact(5)

    rng = np.random.default_rng(5)
    acfg = TrainConfig(C=8, n_heads=2, adapter_r=4, adapter_d_state=2)
    adapter = TPMambaAdapter.init(acfg, rng, "tp")
    for phi in adapter.scanners:
        phi.w_out.data = 0.5 * rng.standard_normal(phi.w_out.shape)
    G = Tensor(rng.standard_normal((2, 4, 3, 2, 3)), dtype=np.float64)
    tri = scan_in_mode(G, adapter, "tri_plane").data
    parts = sum(scan_in_mode(G, adapter, m).data for m in ("hw_only", "dw_only", "dh_only"))
    # both sides add hw, dw and dh in that order, so the sums agree bit for bit
    assert np.array_equal(tri, parts)
    _report(4, "flatten/unflatten bit-exact (4 modes x 5 shapes); tri-plane sum bit-exact")


@pytest.mark.slow
def test_criterion_5_overfit_oracle(tmp_path):
    start = time.perf_counter()
    data_dir = tmp_path / "overfit_data"
    gen_synth(1, (32, 96, 96), 2, seed=7, out_dir=data_dir)
    cfg = TrainConfig(
        C=96, n_heads=4, n_blocks=4, adapter_r=24, adapter_scan_mode="tri_plane",
        crop=(32, 96, 96), n_classes=2, seed=0, lr_start=3e-3, weight_decay=1e-2,
        flip=False, contrast=False, scale_jitter=False, epochs=200,
    )
    rows = train(cfg, data_dir, tmp_path / "overfit.ckpt")
    elapsed = time.perf_counter() - start
    final_dice = rows[-1]["mean_dice"]
    assert final_dice >= 0.95, f"final train dice {final_dice}"
    assert elapsed < 900.0
    _report(5, f"overfit: train dice {final_dice:.4f} after 200 steps in {elapsed / 60:.1f} min")


def test_criterion_6_freeze_contract(tmp_path):
    data_dir = tmp_path / "freeze_data"
    gen_synth(1, (32, 32, 32), 2, seed=3, out_dir=data_dir)
    cfg = dataclasses.replace(
        TOY, crop=(16, 32, 32), seed=2, lr_start=3e-3, flip=False, contrast=False, scale_jitter=False
    )
    from tpmamba.data import list_dataset, load_record
    from tpmamba.optim import AdamWState, lr_schedule
    from tpmamba.train import _train_record_step, build_model

    vol, lab = list_dataset(data_dir)[0]
    rec = preprocess(load_record(vol, lab))
    model = build_model(cfg)
    trainable, frozen = model.partition()
    before = {p.name: p.data.copy() for p in model.parameters()}
    state = AdamWState(trainable)
    for step in range(10):
        rng = np.random.default_rng((cfg.seed, step, 0))
        lr = lr_schedule(step, 10, cfg.lr_start)
        _train_record_step(model, rec, cfg, rng, trainable, state, lr)
    for p in frozen:
        assert np.array_equal(p.data, before[p.name]), f"frozen {p.name} changed"
        assert p.grad is None
    changed = [p for p in trainable if not np.array_equal(p.data, before[p.name])]
    assert len(changed) == len(trainable), (
        f"{len(trainable) - len(changed)} trainable parameters never moved"
    )
    _report(6, f"{len(frozen)} frozen tensors bit-identical, all {len(trainable)} trainables moved")


def test_criterion_7_flops_anchors():
    anchor = dict(input_dhw=(96, 96, 96), C=768, r=96)
    sa = gflops_estimate("sa_adapter", **anchor)
    lora = gflops_estimate("lora", **anchor)
    assert 14.1 <= sa <= 23.6
    ratio = sa / lora
    assert 100 <= ratio <= 200
    prev = None
    for D in (96, 192, 384):
        args = dict(input_dhw=(D, 96, 96), C=768, r=96)
        r = gflops_estimate("sa_adapter", **args) / gflops_estimate("tp_mamba", **args)
        if prev is not None:
            assert r > prev
        prev = r
    _report(7, f"sa adapter {sa:.2f} GFlops (band 14.1..23.6), sa/lora {ratio:.0f}x, ratio grows with D")


@pytest.mark.parametrize("r", [24, 48, 96, 192])
def test_criterion_8_rank_sweep(r):
    rng = np.random.default_rng(100 + r)
    cfg = TrainConfig(C=16, n_heads=2, adapter_r=r, adapter_d_state=4)
    adapter = TPMambaAdapter.init(cfg, rng, "tp")

    # exact closed-form parameter count
    counted = sum(p.size for p in adapter.parameters())
    assert counted == param_count_adapter(cfg)

    # criterion 1 at this width: block-level fast/sequential agreement
    params = SSMParams.init(cfg, rng, "blk")
    params.w_out.data = 0.2 * rng.standard_normal(params.w_out.shape)
    seq = Tensor(rng.standard_normal((1, 7, r)), dtype=np.float64)
    fast = mamba_block_forward(seq, params).data
    slow = with_sequential_scan(mamba_block_forward, seq, params).data
    assert np.abs(fast - slow).max() / max(1.0, np.abs(slow).max()) < 1e-10

    # criterion 2 at this width: the table's adapter case
    case = adapter_case(f"tp_mamba_adapter_r{r}", cfg, depth=2, signal=0.1, max_coords=2)
    assert run_grad_case(case) < case.tolerance

    # criterion 3 at this width: fresh adapter is the identity
    fresh = TPMambaAdapter.init(cfg, rng, "tp2").astype(np.float32)
    Ff = Tensor(rng.standard_normal((1, 2, 16, 2, 2)).astype(np.float32))
    assert np.array_equal(tp_mamba_forward(Ff, fresh).data, Ff.data)

    # criterion 4 at this width: bijectivity with r channels
    for mode in ("hw", "dh", "dw", "volume"):
        G = Tensor(np.random.default_rng(r).standard_normal((1, r, 2, 3, 2)).astype(np.float32))
        back = plane_unflatten(plane_flatten(G, mode), mode, G.shape)
        assert np.array_equal(back.data, G.data)
    _report(8, f"rank {r}: {counted} params (exact), scan/grad/identity/bijectivity hold")


def test_criterion_9_pipeline_determinism(tmp_path):
    from tpmamba.checkpoint import load_checkpoint, save_checkpoint
    from tpmamba.cli import main

    data = tmp_path / "data"
    gen_synth(1, (32, 32, 32), 2, seed=9, out_dir=data)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(
        "C=8\nn_heads=2\nadapter.r=4\nadapter.d_state=2\nlora_rank=2\nlora_alpha=2\n"
        "crop=16,32,32\nn_classes=2\nseed=3\nlr_start=0.003\n"
        "flip=false\ncontrast=false\nscale_jitter=false\n"
    )
    outs = []
    for name in ("run1", "run2"):
        ckpt = tmp_path / f"{name}.ckpt"
        csvp = tmp_path / f"{name}.csv"
        rc = main(["train", "--config", str(cfg_file), "--data", str(data),
                   "--out", str(ckpt), "--metrics", str(csvp), "--epochs", "3", "--quiet"])
        assert rc == 0
        outs.append((ckpt, csvp))
    assert outs[0][1].read_bytes() == outs[1][1].read_bytes(), "metrics CSVs differ"

    arrays, flat, seed = load_checkpoint(outs[0][0])
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, arrays, flat, seed)
    assert resaved.read_bytes() == outs[0][0].read_bytes(), "save→load→save not byte-identical"
    _report(9, "identical metrics CSVs across runs; checkpoint save→load→save byte-identical")


def test_criterion_10_preprocess_anchors():
    vox = np.array([[[-300.0, 25.0], [250.0, 0.0]]], dtype=np.float32)
    rec = preprocess(VolumeRecord(voxels=vox, spacing=(1, 1, 1)))
    assert rec.voxels[0, 0, 0] == 0.0
    assert rec.voxels[0, 0, 1] == 0.5
    assert rec.voxels[0, 1, 0] == 1.0

    vol = np.random.default_rng(0).uniform(-200, 250, (10, 6, 6)).astype(np.float32)
    rec2 = preprocess(VolumeRecord(voxels=vol, spacing=(2.0, 1.0, 1.0)))
    assert rec2.voxels.shape == (20, 6, 6)
    _report(10, "HU anchors -300→0.0, 25→0.5, 250→1.0; (2,1,1) mm spacing doubles depth")
