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
architecture off its init within a few hundred desk-scale steps.
"""

from __future__ import annotations

import math

import numpy as np

from .vit import ViTConfig, ViTWeights, VisionTransformer, cross_entropy, init_weights


def make_pattern_dataset(config: ViTConfig, per_class: int, seed: int,
                         amp_lo: float = 0.03, amp_hi: float = 0.20,
                         noise: float = 0.02):
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
        img = 0.5 + amp * pattern + noise * rng.standard_normal((3, h, w))
        images[i] = np.clip(img, 0.0, 1.0)
        labels[i] = label
    return images, labels


class AdamState:
    """Per-tensor Adam moments; update() mutates the weight arrays in place."""

    def __init__(self, weights: ViTWeights, lr: float = 3e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in weights.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in weights.tensors.items()}

    def update(self, weights: ViTWeights, grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** self.step)
            vhat = self.v[name] / (1 - b2 ** self.step)
            weights.tensors[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def train_step(model: VisionTransformer, opt: AdamState,
               images: np.ndarray, labels: np.ndarray) -> float:
    res = model.forward(images, weight_grads=True)
    loss = cross_entropy(res.logits, labels)
    res.graph.retain = set(res.weight_nodes.values())
    res.graph.backward(loss)
    grads = {name: res.graph.gradients[nid] for name, nid in res.weight_nodes.items()}
    opt.update(model.weights, grads)
    return loss.item()


def train_toy_model(config: ViTConfig, seed: int, steps: int = 500,
                    lr: float = 3e-3, batch_size: int = 8,
                    per_class: int = 24) -> tuple[VisionTransformer, list[float]]:
    """Train a fresh model on striped synthetic images; returns (model, losses)."""
    if config.num_classes != 2:
        raise ValueError("toy training is two-class")
    weights = init_weights(config, seed)
    model = VisionTransformer(config, ViTWeights(config, dict(weights.tensors)))
    images, labels = make_pattern_dataset(config, per_class, seed + 1)
    rng = np.random.Generator(np.random.PCG64(seed + 2))
    opt = AdamState(model.weights, lr=lr)
    losses = []
    for _ in range(steps):
        idx = rng.integers(0, len(images), size=batch_size)
        losses.append(train_step(model, opt, images[idx], labels[idx]))
    return model, losses
