import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def ab_bench(parent, change, pairs, out):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_bench.py"), "--parent", str(parent), "--change", str(change),
         "--pairs", pairs, "--out", str(out)],
        stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_ab_bench_rejects_fewer_than_two_pairs_before_running(tmp_path, pairs):
    out = tmp_path / "bench.json"
    proc = ab_bench(tmp_path, tmp_path, pairs, out)
    assert proc.returncode == 2
    assert "at least 2 pairs" in proc.stderr
    assert not out.exists()


def test_ab_bench_rejects_checkout_paths_of_different_length_before_running(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "ch").mkdir()
    out = tmp_path / "bench.json"
    proc = ab_bench(tmp_path / "p", tmp_path / "ch", "2", out)
    assert proc.returncode == 2
    assert "differ in length" in proc.stderr
    assert not out.exists()
