"""L-infinity adversarial attacks: PGD and momentum iterative FGSM.

Both are untargeted (they ascend the cross-entropy of the true class),
operate in the [0, 1] pixel range, and project every iterate back onto
the epsilon ball and the valid range. The attacked model only needs a
``loss_and_input_grad(image, label)`` method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

PIXEL_MIN = 0.0
PIXEL_MAX = 1.0

DEFAULT_EPSILON = 8.0 / 255.0
DEFAULT_STEP_SIZE = 2.0 / 255.0
DEFAULT_NUM_STEPS = 10


@dataclass(frozen=True)
class AttackConfig:
    method: str = "pgd"                    # "pgd" | "mifgsm"
    epsilon: float = DEFAULT_EPSILON       # L-inf budget, normalized pixels
    step_size: float = DEFAULT_STEP_SIZE
    num_steps: int = DEFAULT_NUM_STEPS
    momentum_decay: float = 1.0            # MI-FGSM only
    seed: int = 0                          # PGD random start
    random_start: bool = True              # PGD only

    def __post_init__(self):
        if self.method not in ("pgd", "mifgsm"):
            raise ParameterError(f"unknown attack method {self.method!r}")
        # epsilon == 0 is allowed as the degenerate no-op attack
        if not 0 <= self.epsilon < math.inf:
            raise ParameterError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0 < self.step_size < math.inf:
            raise ParameterError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.num_steps < 1:
            raise ParameterError("num_steps must be >= 1")
        if not 0.0 <= self.momentum_decay <= 1.0:
            raise ParameterError("momentum_decay must be in [0, 1]")


def _check_image(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.min() < PIXEL_MIN - 1e-12 or img.max() > PIXEL_MAX + 1e-12:
        raise ParameterError("attack input image must lie in [0, 1]")
    return img


def _project(x: np.ndarray, origin: np.ndarray, eps: float) -> np.ndarray:
    x = origin + np.clip(x - origin, -eps, eps)
    return np.clip(x, PIXEL_MIN, PIXEL_MAX)


def pgd_attack(model, image: np.ndarray, true_class: int, cfg: AttackConfig) -> np.ndarray:
    """Projected gradient descent: random start, signed-gradient ascent,
    projection after every step. Deterministic given (model, image, cfg)."""
    img = _check_image(image)
    eps = float(cfg.epsilon)
    x = img.copy()
    if cfg.random_start and eps > 0:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        x = _project(img + rng.uniform(-eps, eps, img.shape), img, eps)
    for _ in range(cfg.num_steps):
        _, grad = model.loss_and_input_grad(x, true_class)
        x = _project(x + cfg.step_size * np.sign(grad), img, eps)
    return x


def mifgsm_attack(model, image: np.ndarray, true_class: int, cfg: AttackConfig) -> np.ndarray:
    """Momentum iterative FGSM: gradients are L1-normalized and accumulated
    with decay ``momentum_decay`` before the signed step."""
    img = _check_image(image)
    eps = float(cfg.epsilon)
    x = img.copy()
    momentum = np.zeros_like(img)
    for _ in range(cfg.num_steps):
        _, grad = model.loss_and_input_grad(x, true_class)
        l1 = np.abs(grad).sum()
        momentum = cfg.momentum_decay * momentum + (grad / l1 if l1 > 0 else grad)
        x = _project(x + cfg.step_size * np.sign(momentum), img, eps)
    return x


def run_attack(model, image: np.ndarray, true_class: int, cfg: AttackConfig) -> np.ndarray:
    fn = pgd_attack if cfg.method == "pgd" else mifgsm_attack
    return fn(model, image, true_class, cfg)
