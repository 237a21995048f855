import numpy as np
import pytest

from tpmamba import cli
from tpmamba.cli import main
from tpmamba.checkpoint import load_checkpoint, save_checkpoint
from tpmamba.config import TrainConfig, load_config, parse_config_text
from tpmamba.data import read_rvol, write_rvol
from tpmamba.errors import CheckpointError, ConfigError, InputError, NumericError, ShapeError
from tpmamba.selfcheck import GRAD_CASES
from tpmamba.train import evaluate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset(workdir):
    data = workdir / "data"
    rc = main(["gen-synth", "--n", "2", "--size", "32", "--classes", "2", "--seed", "0",
               "--out", str(data)])
    assert rc == 0
    return data


@pytest.fixture(scope="module")
def config_path(workdir):
    cfg = TrainConfig(
        C=8, n_heads=2, n_blocks=4, adapter_r=4, adapter_d_state=2,
        lora_rank=2, lora_alpha=2.0, crop=(16, 32, 32), n_classes=2,
        seed=5, lr_start=3e-3, flip=False, contrast=False, scale_jitter=False,
    )
    path = workdir / "train.cfg"
    path.write_text(
        "C=8\nn_heads=2\nn_blocks=4\nadapter.r=4\nadapter.d_state=2\nlora_rank=2\nlora_alpha=2.0\n"
        "crop=16,32,32\nn_classes=2\nseed=5\nlr_start=3e-3\nflip=false\ncontrast=false\nscale_jitter=false\n",
        encoding="utf-8",
    )
    assert load_config(path) == cfg
    return path


@pytest.fixture(scope="module")
def trained(workdir, dataset, config_path):
    ckpt = workdir / "model.ckpt"
    rc = main(["train", "--config", str(config_path), "--data", str(dataset),
               "--out", str(ckpt), "--epochs", "2", "--quiet"])
    assert rc == 0
    return ckpt


def test_gen_synth_files(dataset):
    files = sorted(p.name for p in dataset.iterdir())
    assert files == [
        "case000.img.rvol", "case000.lbl.rvol", "case001.img.rvol", "case001.lbl.rvol",
    ]


def test_train_produces_outputs(trained):
    assert trained.exists()
    metrics = trained.parent / (trained.name + ".metrics.csv")
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch,lr,loss,mean_dice"
    assert len(lines) == 3


def test_eval_cli(workdir, dataset, trained):
    out = workdir / "eval.csv"
    rc = main(["eval", "--ckpt", str(trained), "--data", str(dataset), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "volume,class1,mean"
    assert len(lines) == 4  # two volumes + mean row + header


def test_infer_cli(workdir, dataset, trained):
    out = workdir / "pred.lbl.rvol"
    rc = main(["infer", "--ckpt", str(trained), "--volume", str(dataset / "case000.img.rvol"),
               "--out", str(out)])
    assert rc == 0
    labels, spacing = read_rvol(out)
    assert labels.dtype == np.uint8
    assert labels.shape == (32, 32, 32)


def test_check_cli_suites(capsys):
    rc = main(["check", "--suite", "scan"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    rc = main(["check", "--suite", "roundtrip"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["check", "--suite", "grad"])
    lines = capsys.readouterr().out.splitlines()
    n = len(GRAD_CASES)
    assert rc == 0
    assert [line.split(" grad < ")[0] for line in lines[:-1]] == [f"[PASS] {case.name}" for case in GRAD_CASES]
    assert lines[-1] == f"{n}/{n} checks passed"


def test_bench_flops_cli(workdir, capsys):
    out = workdir / "flops.csv"
    rc = main(["bench-flops", "--input", "96,96,96", "--dim", "768", "--rank", "96",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "sa_adapter" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "D,H,W,tokens,lora,sa_adapter,conv3d_adapter,tp_mamba"
    assert len(lines) == 5  # header + 4 doubling rows


def test_config_override_seed(workdir, dataset, config_path):
    c1 = workdir / "s1.ckpt"
    c2 = workdir / "s2.ckpt"
    main(["train", "--config", str(config_path), "--data", str(dataset),
          "--out", str(c1), "--epochs", "1", "--seed", "1", "--quiet"])
    main(["train", "--config", str(config_path), "--data", str(dataset),
          "--out", str(c2), "--epochs", "1", "--seed", "2", "--quiet"])
    assert c1.read_bytes() != c2.read_bytes()


# The exit code of each package error class, as README "Command line" lists them.
EXIT_CODES = {ConfigError: 3, InputError: 4, CheckpointError: 5, NumericError: 6, ShapeError: 7}


def _one_line_error(capsys, rc, cls):
    err = capsys.readouterr().err
    assert rc == EXIT_CODES[cls]
    assert err.startswith("tpmamba: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def test_config_error_prints_one_line(workdir, dataset, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text("epochs=abc\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(workdir / "bad.ckpt")])
    assert "epochs" in _one_line_error(capsys, rc, ConfigError)


@pytest.mark.parametrize("epochs", ["0", "-3"])
def test_epochs_override_checked_before_training(workdir, dataset, config_path, capsys, epochs):
    out = workdir / f"epochs{epochs}.ckpt"
    rc = main(["train", "--config", str(config_path), "--data", str(dataset), "--out", str(out),
               "--epochs", epochs, "--quiet"])
    assert "epochs must be at least 1" in _one_line_error(capsys, rc, ConfigError)
    assert not out.exists() and not (workdir / f"epochs{epochs}.ckpt.metrics.csv").exists()


# Keys that older configs and checkpoint snapshots may still set, with a value
# they held there.  The single-scale depth conv is `adapter.dilations=1`; the
# other six are the constants in `tpmamba.config`.
REMOVED_KEYS = {
    "adapter.conv_mode": "multiscale", "lr_end": 0.0, "mlp_ratio": 4, "adapter.depth_kernel": 3,
    "adapter.expand": 2, "adapter.d_conv": 4, "adapter.dt_rank": None,
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_rejected(workdir, dataset, config_path, trained, capsys, key):
    """A config file or an older checkpoint's snapshot that still sets a
    removed key is rejected as an unknown key."""
    removed = f"unknown config key {key!r}"
    line = f"{key}={'none' if REMOVED_KEYS[key] is None else REMOVED_KEYS[key]}\n"
    with pytest.raises(ConfigError, match=removed):
        parse_config_text(line)
    cfg = workdir / "removed_key.cfg"
    cfg.write_text(config_path.read_text(encoding="utf-8") + line, encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(workdir / "never.ckpt")])
    assert removed in _one_line_error(capsys, rc, ConfigError)

    arrays, flat, seed = load_checkpoint(trained)
    old = workdir / "removed_key.ckpt"
    save_checkpoint(old, arrays, {**flat, key: REMOVED_KEYS[key]}, seed)
    rc = main(["infer", "--ckpt", str(old), "--volume", str(dataset / "case000.img.rvol"),
               "--out", str(workdir / "never.lbl.rvol")])
    assert removed in _one_line_error(capsys, rc, ConfigError)
    assert not (workdir / "never.ckpt").exists() and not (workdir / "never.lbl.rvol").exists()


def test_epochs_override_is_the_snapshot(trained):
    assert load_checkpoint(trained)[1]["epochs"] == 2


def test_evaluate_rejects_unlabelled(workdir, trained, capsys):
    data = workdir / "unlabelled"
    data.mkdir()
    write_rvol(data / "x.img.rvol", np.zeros((32, 32, 32), dtype=np.float32), (1, 1, 1))
    with pytest.raises(InputError, match="x.img.rvol"):
        evaluate(trained, data, workdir / "never.csv")
    rc = main(["eval", "--ckpt", str(trained), "--data", str(data), "--out", str(workdir / "never.csv")])
    assert "requires a label file" in _one_line_error(capsys, rc, InputError)
    assert not (workdir / "never.csv").exists()


def test_input_error_prints_one_line(workdir, capsys):
    rc = main(["gen-synth", "--n", "1", "--size", "8", "--out", str(workdir / "tiny")])
    assert "extents >= 32" in _one_line_error(capsys, rc, InputError)


def test_checkpoint_error_prints_one_line(workdir, dataset, capsys):
    ckpt = workdir / "random.ckpt"
    ckpt.write_bytes(np.random.default_rng(0).bytes(100))
    rc = main(["infer", "--ckpt", str(ckpt), "--volume", str(dataset / "case000.img.rvol"),
               "--out", str(workdir / "never.lbl.rvol")])
    assert str(ckpt) in _one_line_error(capsys, rc, CheckpointError)
    assert not (workdir / "never.lbl.rvol").exists()


# An input file that cannot be read: the error it ends in and the option naming it.
UNREADABLE = {
    "config_missing": (ConfigError, "--config"),
    "config_not_utf8": (ConfigError, "--config"),
    "ckpt_missing": (CheckpointError, "--ckpt"),
    "volume_missing": (InputError, "--volume"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_prints_one_line(workdir, dataset, trained, capsys, case):
    cls, option = UNREADABLE[case]
    bad = workdir / f"{case}.in"
    if case == "config_not_utf8":
        bad.write_bytes(b"seed=\xff\n")
    if option == "--config":
        argv = ["train", "--config", str(bad), "--data", str(dataset), "--out", str(workdir / "never.ckpt")]
    else:
        files = {"--ckpt": trained, "--volume": dataset / "case000.img.rvol", option: bad}
        argv = ["infer", "--ckpt", str(files["--ckpt"]), "--volume", str(files["--volume"]),
                "--out", str(workdir / "never.lbl.rvol")]
    assert str(bad) in _one_line_error(capsys, main(argv), cls)
    assert not (workdir / "never.ckpt").exists() and not (workdir / "never.lbl.rvol").exists()


@pytest.mark.parametrize("cls", [NumericError, ShapeError], ids=["NumericError", "ShapeError"])
def test_numeric_and_shape_errors_print_one_line(workdir, monkeypatch, capsys, cls):
    def fail(*args):
        raise cls("raised inside the command")

    monkeypatch.setattr(cli, "gen_synth", fail)
    rc = main(["gen-synth", "--out", str(workdir / "unused")])
    assert _one_line_error(capsys, rc, cls) == "tpmamba: error: raised inside the command\n"


def test_other_exceptions_keep_their_traceback(workdir, monkeypatch):
    def fail(*args):
        raise KeyError("not a package error")

    monkeypatch.setattr(cli, "gen_synth", fail)
    with pytest.raises(KeyError):
        main(["gen-synth", "--out", str(workdir / "unused")])
