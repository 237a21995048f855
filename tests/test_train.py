import dataclasses

import numpy as np
import pytest

from tpmamba import checkpoint
from tpmamba.checkpoint import save_checkpoint
from tpmamba.config import to_flat_dict
from tpmamba.data import gen_synth, load_record, preprocess
from tpmamba.errors import ConfigError, InputError
from tpmamba.selfcheck import TOY
from tpmamba.train import build_model, evaluate_model, model_from_checkpoint, train


def tiny_cfg(**kw):
    return dataclasses.replace(
        TOY, crop=(16, 32, 32), n_classes=3, seed=11, lr_start=3e-3, flip=False, contrast=False, scale_jitter=False, **kw
    )


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    gen_synth(2, (32, 32, 32), 3, seed=4, out_dir=d)
    return d


def test_train_writes_checkpoint_and_metrics(tmp_path, tiny_dataset):
    cfg = tiny_cfg(epochs=2)
    ckpt = tmp_path / "model.ckpt"
    csv_path = tmp_path / "metrics.csv"
    rows = train(cfg, tiny_dataset, ckpt, metrics_csv=csv_path)
    assert len(rows) == 2
    assert ckpt.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "epoch,lr,loss,mean_dice"
    assert len(csv_path.read_text().splitlines()) == 3


def test_train_seed_reproducibility(tmp_path, tiny_dataset):
    cfg = tiny_cfg(epochs=3)
    r1 = train(cfg, tiny_dataset, tmp_path / "a.ckpt")
    r2 = train(cfg, tiny_dataset, tmp_path / "b.ckpt")
    assert r1 == r2
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_train_loss_decreases(tmp_path, tiny_dataset):
    cfg = tiny_cfg(epochs=60)
    rows = train(cfg, tiny_dataset, tmp_path / "m.ckpt")
    losses = [r["loss"] for r in rows]
    early = float(np.median(losses[:10]))
    late = float(np.median(losses[-10:]))
    assert late < early


def test_train_rejects_unlabelled(tmp_path, rng):
    from tpmamba.data import write_rvol

    d = tmp_path / "data"
    d.mkdir()
    write_rvol(d / "x.img.rvol", rng.standard_normal((32, 32, 32)).astype(np.float32), (1, 1, 1))
    with pytest.raises(InputError):
        train(tiny_cfg(epochs=1), d, tmp_path / "m.ckpt")


def test_checkpoint_reload_reproduces_model(tmp_path, tiny_dataset):
    cfg = tiny_cfg(epochs=1)
    ckpt = tmp_path / "m.ckpt"
    train(cfg, tiny_dataset, ckpt)
    model, loaded_cfg = model_from_checkpoint(ckpt)
    assert loaded_cfg == cfg
    vol = preprocess(load_record(*__import__("tpmamba.data", fromlist=["list_dataset"]).list_dataset(tiny_dataset)[0]))
    x = vol.voxels[: 16, :32, :32][None, None]
    out1 = model.predict_logits(x)
    model2, _ = model_from_checkpoint(ckpt)
    out2 = model2.predict_logits(x)
    np.testing.assert_array_equal(out1, out2)


def test_checkpoint_with_removed_config_key_rejected(tmp_path):
    cfg = tiny_cfg()
    named = {name: p.data for name, p in build_model(cfg).named_parameters().items()}
    ckpt = tmp_path / "old.ckpt"
    for key, value in (("batch_size", 1), ("patch", 16)):
        save_checkpoint(ckpt, named, {**to_flat_dict(cfg), key: value}, cfg.seed)
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            model_from_checkpoint(ckpt)


def test_model_from_checkpoint_reads_the_file_once(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    named = {name: p.data for name, p in build_model(cfg).named_parameters().items()}
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, named, to_flat_dict(cfg), cfg.seed)
    reads = []
    load = checkpoint.load_checkpoint
    monkeypatch.setattr(checkpoint, "load_checkpoint", lambda path: reads.append(path) or load(path))
    model, _ = model_from_checkpoint(ckpt)
    assert reads == [ckpt]
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(p.data, named[name])


# ---------------------------------------------------------------------------
# evaluation harness


def _records_from(dataset_dir, n=1):
    from tpmamba.data import list_dataset

    out = []
    for vol, lab in list_dataset(dataset_dir)[:n]:
        out.append((vol.name, preprocess(load_record(vol, lab))))
    return out


def test_evaluate_with_oracle_stub(tiny_dataset):
    records = _records_from(tiny_dataset)
    name, rec = records[0]

    def oracle(patch):
        # the stub cannot see the labels through the window, so look them up
        # by matching intensities: instead run on the full already-known rec
        raise AssertionError("unused")

    # ground-truth oracle: map each voxel's label to a one-hot logit field
    full = rec.labels

    class Oracle:
        def __init__(self):
            self.cursor = None

        def __call__(self, patch):
            # labels and voxels share the grid; recover position by exhaustive
            # match is overkill here: windows tile the volume in fixed order,
            # so just re-derive from intensity equality
            d, h, w = patch.shape[2:]
            # find offset whose voxels slice equals the patch
            vox = rec.voxels
            D, H, W = vox.shape
            for zs in range(0, D - d + 1):
                if not np.array_equal(vox[zs : zs + d, :h, :w], patch[0, 0, :, :h, :w]):
                    continue
                lab = full[zs : zs + d, :h, :w]
                K = 3
                logits = np.where(
                    lab[None, None] == np.arange(K)[None, :, None, None, None], 20.0, -20.0
                )
                return logits
            raise AssertionError("window not located")

    # window == full volume so a single window is used and offsets are trivial
    rows = evaluate_model(Oracle(), records, K=3, window=rec.voxels.shape)
    assert rows[0]["mean"] == 1.0
    assert rows[-1]["volume"] == "mean"


def test_evaluate_constant_background_gives_zero(tiny_dataset):
    records = _records_from(tiny_dataset)

    def background_model(patch):
        d, h, w = patch.shape[2:]
        logits = np.zeros((1, 3, d, h, w))
        logits[:, 0] = 10.0
        return logits

    rows = evaluate_model(background_model, records, K=3, window=(32, 32, 32))
    assert rows[0]["mean"] == 0.0
    np.testing.assert_array_equal(rows[0]["scores"], [0.0, 0.0])


def test_eval_csv_column_contract(tmp_path, tiny_dataset):
    from tpmamba.train import write_eval_csv

    records = _records_from(tiny_dataset)

    def background_model(patch):
        d, h, w = patch.shape[2:]
        logits = np.zeros((1, 3, d, h, w))
        logits[:, 0] = 10.0
        return logits

    rows = evaluate_model(background_model, records, K=3, window=(32, 32, 32))
    path = tmp_path / "eval.csv"
    write_eval_csv(path, rows, K=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "volume,class1,class2,mean"
    assert len(lines) == 2 + len(records)  # header + volumes + mean row


def test_window_sized_volume_matches_direct_forward(tmp_path, tiny_dataset):
    cfg = tiny_cfg(epochs=1)
    ckpt = tmp_path / "m.ckpt"
    train(cfg, tiny_dataset, ckpt)
    model, _ = model_from_checkpoint(ckpt)
    records = _records_from(tiny_dataset)
    name, rec = records[0]
    crop = rec.voxels[:16, :32, :32]
    labs = rec.labels[:16, :32, :32]
    from tpmamba.data import VolumeRecord
    from tpmamba.seghead import dice_score, sliding_window_infer

    small = VolumeRecord(voxels=crop, spacing=(1, 1, 1), labels=labs)
    direct = model.predict_logits(crop[None, None])
    swi = sliding_window_infer(crop[None, None], model.predict_logits, window=(16, 32, 32))
    np.testing.assert_allclose(swi.logits, direct, rtol=1e-6, atol=1e-7)
    s1, m1 = dice_score(direct.argmax(axis=1), labs[None], 3)
    s2, m2 = dice_score(swi.labels, labs[None], 3)
    np.testing.assert_array_equal(s1, s2)
