import dataclasses

import numpy as np
import pytest

from model_helpers import param_count_adapter, param_count_ssm, without_adapters
from tpmamba import tensor as T
from tpmamba.config import TrainConfig
from tpmamba.encoder import (
    Encoder,
    encoder_forward,
    mhsa_lora,
    patch_embed_slices,
    vit_block_forward,
)
from tpmamba.errors import ShapeError
from tpmamba.selfcheck import TOY
from tpmamba.tensor import Tensor, recording


def toy_encoder(rng, dtype=np.float32, **kw):
    """The toy config's encoder, with the config fields in kw changed."""
    return Encoder.init(dataclasses.replace(TOY, **kw), rng).astype(dtype)


# ---------------------------------------------------------------------------
# patch embedding


def test_patch_embed_shapes(rng):
    enc = toy_encoder(rng)
    X = Tensor(rng.standard_normal((1, 1, 4, 32, 32)).astype(np.float32))
    assert patch_embed_slices(X, enc).shape == (1, 4, 8, 2, 2)


def test_patch_embed_full_scale_shape(rng):
    enc = toy_encoder(rng, crop=(4, 96, 96))
    X = Tensor(rng.standard_normal((1, 1, 96, 96, 96)).astype(np.float32))
    assert patch_embed_slices(X, enc).shape == (1, 96, 8, 6, 6)


def test_patch_embed_slices_are_batch(rng):
    enc = toy_encoder(rng)
    slice_ = rng.standard_normal((1, 1, 1, 32, 32)).astype(np.float32)
    X = Tensor(np.concatenate([slice_, slice_], axis=2))
    out = patch_embed_slices(X, enc).data
    np.testing.assert_array_equal(out[0, 0], out[0, 1])


def test_patch_embed_indivisible_rejected(rng):
    enc = toy_encoder(rng)
    with pytest.raises(ShapeError):
        patch_embed_slices(Tensor(np.zeros((1, 1, 2, 30, 32), dtype=np.float32)), enc)


# ---------------------------------------------------------------------------
# attention


def test_mhsa_single_token_is_value_path(rng):
    enc = toy_encoder(rng)
    blk = enc.blocks[0]
    x = Tensor(rng.standard_normal((3, 1, 8)).astype(np.float32))
    out = mhsa_lora(x, blk)
    expected = blk.out(blk.v(x))
    np.testing.assert_allclose(out.data, expected.data, rtol=1e-5, atol=1e-6)


def test_mhsa_lora_zero_equals_base(rng):
    enc = toy_encoder(rng)
    blk = enc.blocks[0]
    x = Tensor(rng.standard_normal((2, 4, 8)).astype(np.float32))
    with_lora = mhsa_lora(x, blk).data
    # erase the lora A factors too: contribution must already be exactly zero
    a_q = blk.q.a_lora.data.copy()
    a_v = blk.v.a_lora.data.copy()
    blk.q.a_lora.data = np.zeros_like(a_q)
    blk.v.a_lora.data = np.zeros_like(a_v)
    without = mhsa_lora(x, blk).data
    blk.q.a_lora.data = a_q
    blk.v.a_lora.data = a_v
    assert np.array_equal(with_lora, without)


def test_mhsa_token_permutation_equivariance(rng):
    enc = toy_encoder(rng)
    blk = enc.blocks[0]
    x = rng.standard_normal((2, 5, 8)).astype(np.float32)
    perm = np.array([3, 0, 4, 1, 2])
    base = mhsa_lora(Tensor(x), blk).data
    permuted = mhsa_lora(Tensor(x[:, perm]), blk).data
    np.testing.assert_allclose(permuted, base[:, perm], rtol=2e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# blocks and encoder


def test_block_shape_preservation(rng):
    enc = toy_encoder(rng)
    F = Tensor(rng.standard_normal((2, 3, 8, 2, 2)).astype(np.float32))
    out = vit_block_forward(F, enc.blocks[0])
    assert out.shape == (2, 3, 8, 2, 2)


def test_encoder_tap_count_and_shapes(rng):
    enc = toy_encoder(rng)
    X = Tensor(rng.standard_normal((1, 1, 3, 32, 32)).astype(np.float32))
    taps = encoder_forward(X, enc)
    assert len(taps) == 4
    for t in taps:
        assert t.shape == (1, 3, 8, 2, 2)


def test_encoder_twelve_blocks_taps_last_four(rng):
    enc = toy_encoder(rng, n_blocks=12)
    X = Tensor(rng.standard_normal((1, 1, 2, 32, 32)).astype(np.float32))
    taps = encoder_forward(X, enc)
    F = patch_embed_slices(X, enc)
    F = T.add(F, enc.pos)
    all_outputs = []
    for blk in enc.blocks:
        F = vit_block_forward(F, blk)
        all_outputs.append(F.data)
    for tap, want in zip(taps, all_outputs[8:]):  # blocks 9..12, 1-indexed
        np.testing.assert_array_equal(tap.data, want)


def test_trainable_fraction_below_35_percent():
    """Reference configuration (C=96, 4 blocks, r=24, rank-4 LoRA): the
    adapters + LoRA + decoder stay under 35% of all parameters, and the
    counted sizes match the closed forms."""
    from tpmamba.model import SegModel

    cfg = TrainConfig(C=96, n_heads=4, n_blocks=4, lora_rank=4, lora_alpha=4.0,
                      adapter_r=24, crop=(96, 96, 96), n_classes=2, seed=0)
    model = SegModel.init(cfg)
    trainable, frozen = model.partition()
    n_train = sum(p.size for p in trainable)
    n_total = n_train + sum(p.size for p in frozen)

    # closed forms: adapters, LoRA, frozen backbone
    adapter_count = param_count_adapter(cfg)
    expected_adapter = (
        3 * 96 * 24 + 24  # reduce conv + bias
        + 4 * (3 * 24 * 6 + 6)  # four dilated branches
        + 3 * param_count_ssm(cfg)
        + 3 * 24 * 96 + 96  # raise conv + bias
    )
    assert adapter_count == expected_adapter
    per_block_lora = 2 * (4 * 96 + 96 * 4)
    per_block_frozen = 2 * 2 * 96 + 4 * (96 * 96 + 96) + (96 * 384 + 384) + (384 * 96 + 96)
    expected_frozen = 4 * per_block_frozen + (256 * 96 + 96) + 96 * 6 * 6
    assert sum(p.size for p in frozen) == expected_frozen
    decoder_count = sum(p.size for p in model.decoder.parameters())
    assert n_train == 4 * (adapter_count + per_block_lora) + decoder_count
    assert n_train / n_total < 0.35


def test_slice_permutation_consistency(rng):
    enc = toy_encoder(rng)
    X = rng.standard_normal((1, 1, 4, 32, 32)).astype(np.float32)
    perm = np.array([2, 0, 3, 1])
    base = without_adapters(encoder_forward, Tensor(X), enc)[-1].data
    permuted = without_adapters(encoder_forward, Tensor(X[:, :, perm]), enc)[-1].data
    np.testing.assert_allclose(permuted, base[:, perm], rtol=2e-5, atol=1e-6)
    # with a non-trivial adapter the depth mixing must break the equivariance
    enc.blocks[0].adapter.raise_w.data = 0.5 * rng.standard_normal(
        enc.blocks[0].adapter.raise_w.shape
    ).astype(np.float32)
    base2 = encoder_forward(Tensor(X), enc)[-1].data
    permuted2 = encoder_forward(Tensor(X[:, :, perm]), enc)[-1].data
    assert not np.allclose(permuted2, base2[:, perm], atol=1e-5)


def test_batch_entries_are_independent(rng):
    """Each volume of a batch of two gets the logits it gets alone: no layout
    change in the encoder, its adapters or the decoder mixes B with D."""
    from tpmamba.model import SegModel

    cfg = dataclasses.replace(TOY, n_classes=3)
    model = SegModel.init(cfg)
    for p in model.parameters():
        if not p.data.any():
            p.data = (0.1 * rng.standard_normal(p.shape)).astype(p.data.dtype)
    X = rng.standard_normal((2, 1) + cfg.crop).astype(np.float32)
    both = model.forward(Tensor(X)).data
    for b in range(2):
        alone = model.forward(Tensor(X[b : b + 1])).data[0]
        assert np.abs(both[b] - alone).max() <= 1e-5 * np.abs(alone).max()


def test_float_type_is_decided_once():
    """Each sub-module draws its parameters in f64; `SegModel.init` alone
    casts, to f32, bytes equal to the encoder then the decoder drawn from
    one generator and each cast with `astype`."""
    from tpmamba.model import SegModel
    from tpmamba.seghead import Decoder
    from tpmamba.ssm import SSMParams
    from tpmamba.triplane import TPMambaAdapter

    cfg = dataclasses.replace(TOY, n_classes=3, seed=4)
    rng = np.random.default_rng(0)
    for module in (Encoder.init(cfg, rng), Decoder.init(cfg, rng),
                   TPMambaAdapter.init(cfg, rng, "tp"), SSMParams.init(cfg, rng, "blk")):
        assert {p.data.dtype for p in module.parameters()} == {np.dtype(np.float64)}

    model = SegModel.init(cfg)
    rng = np.random.default_rng(cfg.seed)
    encoder = Encoder.init(cfg, rng)
    assert encoder.astype(np.float32) is encoder
    expected = encoder.parameters() + Decoder.init(cfg, rng).astype(np.float32).parameters()
    got = model.parameters()
    assert [p.name for p in got] == [p.name for p in expected]
    for a, b in zip(got, expected):
        assert a.data.dtype == b.data.dtype == np.float32, a.name
        assert a.data.tobytes() == b.data.tobytes(), a.name


# ---------------------------------------------------------------------------
# freeze partition and gradients


def test_freeze_partition_covers_all(rng):
    enc = toy_encoder(rng)
    params = enc.parameters()
    trainable, frozen = enc.partition()
    assert len(trainable) + len(frozen) == len(params)
    assert {id(p) for p in trainable}.isdisjoint({id(p) for p in frozen})
    trainable_names = {p.name for p in trainable}
    assert all(("lora" in n) or ("tpmamba" in n) for n in trainable_names)
    frozen_names = {p.name for p in frozen}
    assert "patch_embed.weight" in frozen_names
    assert "pos_embed" in frozen_names


def test_gradients_reach_only_trainables(rng):
    enc = toy_encoder(rng, dtype=np.float64)
    X = Tensor(rng.standard_normal((1, 1, 3, 32, 32)), dtype=np.float64)
    trainable, frozen = enc.partition()
    with recording() as tape:
        taps = encoder_forward(X, enc)
        loss = T.tsum(T.mul(taps[-1], taps[-1]))
    tape.backward(loss)
    for p in frozen:
        assert p.grad is None, p.name
    reached = sum(p.grad is not None for p in trainable)
    assert reached > 0
