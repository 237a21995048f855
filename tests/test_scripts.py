import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def ab_bench(parent, change, pairs, out, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_bench.py"), "--parent", str(parent), "--change", str(change),
         "--pairs", pairs, "--out", str(out), *extra],
        stderr=subprocess.PIPE, text=True,
    )


def load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPTS / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_ab_bench_rejects_unknown_workload_before_running(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "train_overfit"}]}))
    out = tmp_path / "bench.json"
    proc = ab_bench(tmp_path, tmp_path, "2", out, "--workloads", "train_overfit", "train_fast")
    assert proc.returncode == 2
    assert "unknown workloads ['train_fast']" in proc.stderr
    assert not out.exists()


def test_ab_bench_rejects_checkout_outside_git_before_running(tmp_path):
    """A `git archive` copy has no commit id to report; it is refused, not
    summarised under an empty one."""
    (tmp_path / "BENCHMARK.json").write_text((SCRIPTS.parent / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    proc = ab_bench(tmp_path, tmp_path, "2", out)
    assert proc.returncode == 2
    assert f"{tmp_path.resolve()} is not a git work tree" in proc.stderr
    assert not out.exists()


def test_ab_bench_rejects_negative_traced_pairs_before_running(tmp_path):
    out = tmp_path / "bench.json"
    proc = ab_bench(tmp_path, tmp_path, "2", out, "--traced-pairs", "-1")
    assert proc.returncode == 2
    assert "0 or more" in proc.stderr
    assert not out.exists()


def test_ab_bench_compare_counts_wins_and_identical_pairs():
    metric = {"unit": "loss", "better": "lower", "bound": 0.25}
    summary = load_ab_bench().compare(metric, [1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 3.0, 3.5])
    assert summary["pairs"] == 4
    assert summary["identical"] == 2
    assert summary["change_wins"] == 1
    assert summary["parent"]["median"] == 2.5 and summary["change"]["median"] == 2.75
    assert summary["median_gain"] == -0.25
    assert not summary["regression"]


def test_ab_bench_fingerprint_comparison_names_a_one_ulp_gradient_change(rng):
    module = load_ab_bench()
    sha256 = load_fingerprint().sha256
    arrays = {"loss": np.float32(0.5), "a.weight": rng.standard_normal(4).astype(np.float32),
              "b.weight": rng.standard_normal(3).astype(np.float32)}
    changed = dict(arrays, **{"a.weight": arrays["a.weight"].copy()})
    changed["a.weight"][2] = np.nextafter(changed["a.weight"][2], np.float32(np.inf))

    def fp(arrays, kept):
        return {"workload": "train_overfit", "seed": 7, "tape_kept_bytes": kept,
                "digests": {k: sha256(v) for k, v in arrays.items()}}

    same = module.compare_fingerprints(fp(arrays, 10), fp(dict(arrays), 8))
    assert same["equal"] and same["differ"] == [] and same["seed"] == 7
    assert same["parent"] == {"tape_kept_bytes": 10} and same["change"] == {"tape_kept_bytes": 8}
    differ = module.compare_fingerprints(fp(arrays, 10), fp(changed, 10))
    assert not differ["equal"] and differ["differ"] == ["a.weight"]


def load_fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPTS / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "fingerprint.py"), "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_fingerprint_repeats_and_names_every_trainable_parameter():
    module = load_fingerprint()
    from tpmamba.train import build_model

    cfg = module.workloads.workloads()["train_overfit"].cfg
    trainable, _ = build_model(cfg).partition()
    first, second = fingerprint("train_overfit", 7), fingerprint("train_overfit", 7)
    # the peak includes interpreter objects, whose bytes vary by a few hundred between runs
    peaks = first.pop("step_peak_bytes"), second.pop("step_peak_bytes")
    assert first == second
    assert min(peaks) > 0 and max(peaks) - min(peaks) < 4096, peaks
    assert list(first["digests"]) == ["loss"] + [p.name for p in trainable]
    assert first["tape_kept_bytes"] > 0
    assert all(len(d) == 64 for d in first["digests"].values())
