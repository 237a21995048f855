#!/usr/bin/env python3
"""SHA-256 digests of the arrays one benchmark step computes, one per array.

    python3 scripts/fingerprint.py --workload train_deep --seed 100

Run it in two checkouts at one seed: equal digests mean the two compute the
same bits.  The inputs are the benchmark's own (`perfbench/workloads.py`
writes them from the seed into a temporary directory), and BLAS is pinned to
one thread, as the benchmark pins it.  For a training workload the arrays
are the loss and each trainable gradient of step 1 of a fresh client, named
by parameter in `Module.parameters()` order; for `infer_volume` they are the
blended logits and the u8 labels of one volume.  Prints one JSON object:
``{"workload", "seed", "digests": {name: sha256}}``, and for a training
workload the bytes the step's tape keeps after its forward and loss
(`Tape.kept_bytes`) as ``"tape_kept_bytes"`` and the step's tracemalloc
peak above its start as ``"step_peak_bytes"``.  The peak is read on step 1 of
a second fresh client after its warm-up step, so the optimizer's moments
exist before it starts, as in the benchmark's timed steps: an
allocator-free number to cite next to `peak_rss_mb`, which moves with heap
layout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tpmamba import optim  # noqa: E402
from tpmamba.tensor import Tape  # noqa: E402


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def train_step(client) -> tuple[dict, int]:
    """Step 1's loss and the gradients AdamW receives (it clears them), and
    the bytes the step's tape keeps for its backward."""
    adamw_step, backward = optim.adamw_step, Tape.backward
    grads, kept = {}, []

    def capture(params, *args, **kwargs):
        grads.update((p.name, p.grad.copy()) for p in params)
        return adamw_step(params, *args, **kwargs)

    def counted(tape, loss):
        kept.append(tape.kept_bytes())
        return backward(tape, loss)

    optim.adamw_step, Tape.backward = capture, counted
    try:
        out = client.run(1)
    finally:
        optim.adamw_step, Tape.backward = adamw_step, backward
    return {"loss": out["loss"], **{p.name: grads[p.name] for p in client.trainable}}, kept[0]


def step_peak(client) -> int:
    """Tracemalloc peak of step 1 above its start, after the warm-up step."""
    client.warmup()
    tracemalloc.start()
    try:
        client.run(1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fingerprint(workload: str, seed: int) -> dict:
    wl = workloads.workloads()[workload]
    result = {"workload": workload, "seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.prepare_inputs(wl, seed, Path(tmp))
        client = workloads.make_client(wl, inputs, seed)
        if wl.kind == "train":
            arrays, result["tape_kept_bytes"] = train_step(client)
            client = None  # freed before the second client is built
            result["step_peak_bytes"] = step_peak(workloads.make_client(wl, inputs, seed))
        else:
            out = client.run(1)
            arrays = {"logits": out["logits"], "labels": out["labels"]}
    result["digests"] = {k: sha256(v) for k, v in arrays.items()}
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.workloads()))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(fingerprint(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
