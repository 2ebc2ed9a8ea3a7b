"""Synthetic two-class data and a short training loop.

This exists so attack and faithfulness runs have a model whose predictions
actually depend on the input; nothing here resembles a real training
schedule.

The task is stripe-orientation: class 0 images carry vertical sinusoidal
stripes, class 1 horizontal, with a per-image amplitude drawn uniformly
from [amp_lo, amp_hi] plus pixel noise, values kept in [0, 1]. Drawing the
evaluation set from the weak end of the amplitude range puts samples where
an 8/255 perturbation can overwrite the class pattern, which is the regime
adversarial-detection runs need; strong-amplitude samples keep training
stable.

Training uses Adam on mean cross-entropy: plain SGD does not move this
architecture off its init within a few hundred desk-scale steps. The
schedule is fixed by the constants below; only the step count varies.
"""

from __future__ import annotations

import math

import numpy as np

from .vit import ViTConfig, ViTWeights, VisionTransformer, cross_entropy, init_weights

NOISE = 0.02              # pixel noise std of every pattern image
ADAM_LR = 3e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 8
TRAIN_PER_CLASS = 24      # training images per class


def make_pattern_dataset(config: ViTConfig, per_class: int, seed: int,
                         amp_lo: float = 0.03, amp_hi: float = 0.20):
    """Return (images [2*per_class, 3, H, W] in [0,1], labels [2*per_class])."""
    rng = np.random.Generator(np.random.PCG64(seed))
    h, w = config.image_height, config.image_width
    period = max(2, config.patch_size)
    vertical = np.tile(np.sin(2.0 * math.pi * np.arange(w) / period), (h, 1))
    horizontal = np.tile(np.sin(2.0 * math.pi * np.arange(h) / period)[:, None], (1, w))

    images = np.empty((2 * per_class, 3, h, w))
    labels = np.empty(2 * per_class, dtype=np.int64)
    for i in range(2 * per_class):
        label = i % 2
        amp = rng.uniform(amp_lo, amp_hi)
        pattern = vertical if label == 0 else horizontal
        img = 0.5 + amp * pattern + NOISE * rng.standard_normal((3, h, w))
        images[i] = np.clip(img, 0.0, 1.0)
        labels[i] = label
    return images, labels


class AdamState:
    """Per-tensor Adam moments; update() mutates the weight arrays in place."""

    def __init__(self, weights: ViTWeights):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in weights.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in weights.tensors.items()}

    def update(self, weights: ViTWeights, grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, g in grads.items():
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** self.step)
            vhat = self.v[name] / (1 - b2 ** self.step)
            weights.tensors[name] -= ADAM_LR * mhat / (np.sqrt(vhat) + ADAM_EPS)


def train_step(model: VisionTransformer, opt: AdamState,
               images: np.ndarray, labels: np.ndarray) -> float:
    res = model.forward(images, wrt="weights")
    loss = cross_entropy(res.logits, labels)
    res.graph.backward(loss)
    opt.update(model.weights, res.weight_grads)
    return loss.item()


def train_toy_model(config: ViTConfig, seed: int,
                    steps: int = 500) -> tuple[VisionTransformer, list[float]]:
    """Train a fresh model on striped synthetic images; returns (model, losses)."""
    if config.num_classes != 2:
        raise ValueError("toy training is two-class")
    model = VisionTransformer(init_weights(config, seed))
    images, labels = make_pattern_dataset(config, TRAIN_PER_CLASS, seed + 1)
    rng = np.random.Generator(np.random.PCG64(seed + 2))
    opt = AdamState(model.weights)
    losses = []
    for _ in range(steps):
        idx = rng.integers(0, len(images), size=BATCH_SIZE)
        losses.append(train_step(model, opt, images[idx], labels[idx]))
    return model, losses
