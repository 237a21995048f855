"""Outside-in tracer for the tpmamba package.

Spans are recorded around calls into the package's public functions.  Each
wrapper is installed on the module attribute through which its callers look
the function up (``tpmamba.encoder.linear``, ``tpmamba.triplane.conv3d``,
...), so the package source stays unchanged and the untraced code path is
exactly the shipped one.  ``uninstall`` restores every original attribute.

Every tape node recorded while a span is open belongs to the innermost open
span; its backward closure is wrapped so that the time spent in it becomes a
``bwd`` span under ``tensor.backward`` carrying the owning span's name.  The
same wrapper counts the input gradients each closure returns and how many of
them reach an input that requires a gradient.

A span's self time is its duration minus the durations of its children, so
over one step the self times of all spans sum to the step's root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import defaultdict

_NULL = contextlib.nullcontext()

# metric suffix per span phase: layer ops split forward and backward, other
# calls ("call") report one self time, and a step's own root is "other"
_SUFFIX = {"fwd": ".fwd_s", "bwd": ".bwd_s", "call": ".s"}
_SUFFIX_OVERRIDE = {"seghead.sliding_window_infer": ".self_s"}
OTHER = "other"
MIB = float(2**20)

# The adapter's stages are reported inclusively: a stage's forward is the
# duration of its span, children included, and its backward the time of every
# node recorded inside it.  The scanner block is one stage per plane.  The
# stage wrappers' own self time is adapter glue, booked to tp_mamba_forward.
ADAPTER = "triplane.tp_mamba_forward"
STAGES = ("triplane.reduce_dim", "triplane.multiscale_depth_conv", "triplane.plane_layout", "triplane.raise_dim")
SCAN_STAGES = tuple(f"triplane.scan_{p}" for p in ("hw", "dw", "dh"))
TIME_SUFFIXES = (".fwd_s", ".bwd_s", ".s", ".self_s")


def is_self_time(metric: str) -> bool:
    """Self-time metrics partition a step; the inclusive stage ones do not."""
    return metric.endswith(TIME_SUFFIXES) and metric.rsplit(".", 1)[0] not in STAGES + SCAN_STAGES


class NullTracer:
    """The untraced stand-in: same interface, no recording."""

    def span(self, name, phase="fwd"):
        return _NULL

    def mem(self) -> int:
        return 0


class Span:
    __slots__ = ("name", "phase", "stage", "opens", "parent", "start", "end", "child", "nodes", "mem0", "retained")

    def __init__(self, name, phase, stage, opens, parent, start, mem0):
        self.name = name
        self.phase = phase
        self.stage = stage  # innermost adapter stage this span runs in
        self.opens = opens  # True if this span is that stage's own span
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0  # summed duration of direct children
        self.nodes = 0  # tape nodes recorded while this span was innermost
        self.mem0 = mem0
        self.retained = 0  # traced bytes still held when the span closed

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child

    @property
    def metric(self) -> str:
        """The self-time metric this span's self time is booked under."""
        if self.phase == "root" or self.name == OTHER:
            return OTHER + ".s"
        base = ADAPTER if self.name in STAGES else self.name
        return base + _SUFFIX_OVERRIDE.get(self.name, _SUFFIX[self.phase])


class GradCounts:
    __slots__ = ("computed", "used", "discarded_bytes")

    def __init__(self):
        self.computed = 0
        self.used = 0
        self.discarded_bytes = 0


def _scan_stage(args) -> str:
    """triplane.scan_<plane>, the plane read from the SSMParams argument's
    prefix (``block0.tpmamba.phi_dw.w_in``); volume_flatten reuses phi_hw."""
    plane = args[1].w_in.name.rsplit(".", 1)[0].rsplit("phi_", 1)[-1]
    return f"triplane.scan_{plane}"


class Tracer:
    """Records spans in memory; `installed()` patches the package's modules."""

    def __init__(self):
        self.memory = False
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.grads = GradCounts()
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def mem(self) -> int:
        return tracemalloc.get_traced_memory()[0] if self.memory else 0

    def _open(self, name, phase, stage=None, opens=False) -> int:
        parent = self.stack[-1] if self.stack else -1
        if stage is None and parent >= 0:
            stage = self.spans[parent].stage
        idx = len(self.spans)
        self.spans.append(Span(name, phase, stage, opens, parent, time.perf_counter(), self.mem()))
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        s = self.spans[idx]
        s.end = time.perf_counter()
        if self.memory:
            s.retained = self.mem() - s.mem0
        if s.parent >= 0:
            self.spans[s.parent].child += s.duration
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, phase="fwd"):
        idx = self._open(name, phase)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, phase, stage_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stage = stage_of(args) if stage_of else None
            idx = tracer._open(name, phase, stage, stage is not None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _wrap_record(self, record):
        tracer = self

        def traced_record(inputs, out_data, backward):
            owner = tracer.stack[-1] if tracer.stack else -1
            out = record(inputs, out_data, tracer._timed_backward(backward, inputs, owner))
            if out.requires_grad and owner >= 0:
                tracer.spans[owner].nodes += 1
            return out

        return traced_record

    def _timed_backward(self, backward, inputs, owner):
        tracer = self
        span = self.spans[owner] if owner >= 0 else None
        name = span.name if span is not None and span.phase != "root" else OTHER
        stage = span.stage if span is not None else None

        def timed(g):
            idx = tracer._open(name, "bwd", stage)
            try:
                grads = backward(g)
            finally:
                tracer._close(idx)
            counts = tracer.grads
            for t, ig in zip(inputs, grads):
                if ig is None:
                    continue
                counts.computed += 1
                if t.requires_grad:
                    counts.used += 1
                else:
                    counts.discarded_bytes += getattr(ig, "nbytes", 0)
            return grads

        return timed

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        from tpmamba import checkpoint, data, encoder, model, ops, optim, seghead, ssm, tensor, train, triplane

        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod in (tensor, ops, ssm):
            self._patch(mod, "_record", self._wrap_record(mod._record))
        # (traced name, phase, original function, modules calling it by that attribute)
        sites = [
            ("tensor.linear", "fwd", tensor.linear, (encoder, ssm)),
            ("tensor.gelu", "fwd", tensor.gelu, (encoder, seghead)),
            ("ops.conv3d", "fwd", ops.conv3d, (triplane, seghead)),
            ("ops.normalize", "fwd", ops.normalize, (encoder, seghead)),
            ("ops.upsample_hw", "fwd", ops.upsample_hw, (seghead,)),
            ("ops.conv1d_depthwise", "fwd", ops.conv1d_depthwise, (ssm,)),
            ("ssm.selective_scan", "fwd", ssm.selective_scan, (ssm,)),
            ("triplane.reduce_dim", "fwd", triplane.reduce_dim, (triplane,)),
            ("triplane.multiscale_depth_conv", "fwd", triplane.multiscale_depth_conv, (triplane,)),
            ("triplane.plane_layout", "fwd", triplane.plane_flatten, (triplane,)),
            ("triplane.plane_layout", "fwd", triplane.plane_unflatten, (triplane,)),
            ("triplane.raise_dim", "fwd", triplane.raise_dim, (triplane,)),
            ("triplane.tp_mamba_forward", "fwd", triplane.tp_mamba_forward, (encoder,)),
            ("encoder.patch_embed_slices", "fwd", encoder.patch_embed_slices, (encoder,)),
            ("encoder.mhsa_lora", "fwd", encoder.mhsa_lora, (encoder,)),
            ("encoder.vit_block_forward", "fwd", encoder.vit_block_forward, (encoder,)),
            ("seghead.decoder_forward", "fwd", seghead.decoder_forward, (model,)),
            ("seghead.dice_ce_loss", "fwd", seghead.dice_ce_loss, (seghead,)),
            ("seghead.dice_score", "call", seghead.dice_score, (seghead,)),
            ("seghead.sliding_window_infer", "call", seghead.sliding_window_infer, (seghead,)),
            ("data.load_record", "call", data.load_record, (data,)),
            ("data.preprocess", "call", data.preprocess, (data,)),
            ("data.augment", "call", data.augment, (data,)),
            ("data.write_rvol", "call", data.write_rvol, (data,)),
            ("optim.adamw_step", "call", optim.adamw_step, (optim,)),
            ("checkpoint.load", "call", checkpoint.load_checkpoint, (checkpoint,)),
            ("checkpoint.load", "call", checkpoint.load_into_model, (train,)),
        ]
        for name, phase, fn, modules in sites:
            stage_of = (lambda args, name=name: name) if name in STAGES else None
            wrapped = self._wrap(fn, name, phase, stage_of)
            for mod in modules:
                self._patch(mod, fn.__name__, wrapped)
        # the scanner block is split into hw / dw / dh by the SSMParams it gets
        scan = self._wrap(ssm.mamba_block_forward, "ssm.mamba_block_forward", "fwd", _scan_stage)
        self._patch(triplane, "mamba_block_forward", scan)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def tracing_memory(self):
        """Record retained bytes per span; tracemalloc slows Python-heavy
        layers, so only steps run inside this context pay for it."""
        tracemalloc.start()
        self.memory = True
        try:
            yield self
        finally:
            self.memory = False
            tracemalloc.stop()

    # -- output --------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name, ranges: list):
        """A root span; appends the (first, end) index range of its subtree."""
        first = len(self.spans)
        with self.span(name, "root"):
            yield
        ranges.append((first, len(self.spans)))

    def totals(self, ranges) -> dict:
        """Summed per-layer quantities over the spans of the given roots.

        Self-time metrics (see `is_self_time`) sum to the roots' total
        duration.  The adapter stages' ``.fwd_s``/``.bwd_s`` are inclusive.
        ``<name>.retained_mb`` is inclusive as well: traced bytes still held
        when the forward span closed.
        """
        out: dict = defaultdict(float)
        for first, end in ranges:
            for s in self.spans[first:end]:
                out[s.metric] += s.self_s
                out["tensor.tape.nodes"] += s.nodes
                if s.phase == "fwd":
                    out[s.name + ".calls"] += 1
                    out[s.name + ".incl_s"] += s.duration
                    out[s.name + ".retained_mb"] += s.retained / MIB
                if s.opens:
                    out[s.stage + ".fwd_s"] += s.duration
                elif s.phase == "bwd" and s.stage is not None:
                    out[s.stage + ".bwd_s"] += s.duration
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, phase, start, end, parent."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "phase": s.phase,
                    "stage": s.stage,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                    "nodes": s.nodes,
                    "retained": s.retained,
                }
                f.write(json.dumps(rec) + "\n")
