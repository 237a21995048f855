import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_ab_bench_rejects_fewer_than_two_pairs_before_running(tmp_path, pairs):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_bench.py"), "--parent", str(tmp_path), "--change", str(tmp_path),
         "--pairs", pairs, "--out", str(out)],
        stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 2
    assert "at least 2 pairs" in proc.stderr
    assert not out.exists()
