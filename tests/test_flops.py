import pytest

from tpmamba.errors import ConfigError
from tpmamba.flops import ADAPTER_KINDS, SWEEP_DOUBLINGS, flops_sweep, gflops_estimate

ANCHOR = dict(input_dhw=(96, 96, 96), C=768, r=96)


def test_lora_anchor_band():
    g = gflops_estimate("lora", **ANCHOR)
    assert 18.86 / 145 * 0.75 <= g <= 18.86 / 145 * 1.25


def test_sa_over_tp_ratio_grows_with_depth():
    prev = None
    for D in (96, 192, 384, 768):
        args = dict(input_dhw=(D, 96, 96), C=768, r=96)
        ratio = gflops_estimate("sa_adapter", **args) / gflops_estimate("tp_mamba", **args)
        if prev is not None:
            assert ratio > prev
        prev = ratio


@pytest.mark.parametrize("kind", ADAPTER_KINDS)
def test_monotone_in_extents_and_rank(kind):
    base = gflops_estimate(kind, (64, 96, 96), 768, 96)
    assert gflops_estimate(kind, (128, 96, 96), 768, 96) >= base
    assert gflops_estimate(kind, (64, 192, 96), 768, 96) >= base
    assert gflops_estimate(kind, (64, 96, 192), 768, 96) >= base
    assert gflops_estimate(kind, (64, 96, 96), 768, 192) >= base


def test_unknown_kind():
    with pytest.raises(ConfigError):
        gflops_estimate("windowed_attention", (96, 96, 96), 768, 96)


def test_sweep_shows_quadratic_vs_linear():
    rows = flops_sweep((96, 96, 96), 768, 96)
    assert len(rows) == SWEEP_DOUBLINGS + 1
    # doubling D quadruples the dominant sa term but only doubles tp_mamba
    sa_growth = rows[1]["sa_adapter"] / rows[0]["sa_adapter"]
    tp_growth = rows[1]["tp_mamba"] / rows[0]["tp_mamba"]
    assert 3.5 < sa_growth <= 4.1
    assert abs(tp_growth - 2.0) < 1e-9
