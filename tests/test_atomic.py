"""Writers replace their target atomically: a write that raises part-way
leaves the previous file's bytes and no temp file behind."""

import struct

import numpy as np
import pytest

from tpmamba.atomic import atomic_write
from tpmamba.checkpoint import save_checkpoint
from tpmamba.data import write_rvol
from tpmamba.train import write_eval_csv, write_metrics_csv


def _raises_part_way(path, write, exc):
    """Run `write` over an existing `path`; it must raise `exc` and leave the
    old bytes and no other file in the directory."""
    path.write_bytes(b"previous bytes")
    with pytest.raises(exc):
        write()
    assert path.read_bytes() == b"previous bytes"
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_helper_removes_its_temp_file_on_error(tmp_path):
    path = tmp_path / "out.bin"

    def write():
        with atomic_write(path) as f:
            f.write(b"half of the new bytes")
            f.flush()
            raise RuntimeError("interrupted")

    _raises_part_way(path, write, RuntimeError)


def test_rvol_write_that_raises_part_way_keeps_the_old_file(tmp_path):
    path = tmp_path / "vol.img.rvol"
    # a two-component spacing fails after the magic and the shape are written
    _raises_part_way(path, lambda: write_rvol(path, np.zeros((2, 3, 4), np.float32), (1.0, 1.0)), struct.error)


def test_csv_writes_that_raise_part_way_keep_the_old_file(tmp_path):
    path = tmp_path / "rows.csv"
    # the header row is written before the malformed row raises
    _raises_part_way(path, lambda: write_metrics_csv(path, [{"epoch": 1}]), KeyError)
    _raises_part_way(path, lambda: write_eval_csv(path, [{"volume": "a"}], 2), KeyError)


def test_writers_leave_only_their_target(tmp_path):
    save_checkpoint(tmp_path / "m.ckpt", {"w": np.ones(3, np.float32)}, {}, 0)
    write_rvol(tmp_path / "v.img.rvol", np.zeros((2, 3, 4), np.uint8), (1.0, 1.0, 1.0))
    write_metrics_csv(tmp_path / "m.csv", [{"epoch": 1, "lr": 1e-3, "loss": 0.5, "mean_dice": 0.2}])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.csv", "v.img.rvol"]
