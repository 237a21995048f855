"""Encoder + decoder assembled into one volumetric segmentation model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .encoder import Encoder, encoder_forward
from .seghead import Decoder, decoder_forward
from .tensor import Module, Tensor


@dataclass
class SegModel(Module):
    encoder: Encoder
    decoder: Decoder

    @classmethod
    def init(cls, cfg: TrainConfig) -> "SegModel":
        """Encoder, then decoder, from one generator seeded with `cfg.seed`,
        cast from their f64 draws to f32."""
        rng = np.random.default_rng(cfg.seed)
        encoder = Encoder.init(cfg, rng)
        return cls(encoder=encoder, decoder=Decoder.init(cfg, rng)).astype(np.float32)

    def forward(self, X: Tensor) -> Tensor:
        """(B,1,D,H,W) volume -> (B,K,D,H,W) logits."""
        return decoder_forward(encoder_forward(X, self.encoder), self.decoder)

    def predict_logits(self, volume: np.ndarray) -> np.ndarray:
        """Inference entry point for sliding-window: numpy in, numpy out."""
        X = Tensor(np.ascontiguousarray(volume, dtype=self.encoder.patch_w.data.dtype))
        return self.forward(X).data
