import numpy as np
import pytest

from bicam.toytrain import make_pattern_dataset, train_toy_model
from bicam.vit import ViTConfig

# the small-but-complete model used across the suite: 4x4 patch grid
TINY = dict(image_height=16, image_width=16, patch_size=4, num_layers=4,
            num_heads=2, embed_dim=16, ffn_dim=32)
# the attribute-56 model shape: 14x14 patch grid, N = 197 tokens
SHAPE_56 = dict(image_height=56, image_width=56, patch_size=4, num_layers=6, num_heads=4,
                embed_dim=32, ffn_dim=64, num_classes=10)


def finite_difference(f, x, h=1e-5):
    """Central finite differences of scalar f at every element of x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def bit_equal(a, b) -> bool:
    """Equal values and shapes, with signed zeros told apart."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def stage_names(nodes) -> list[str]:
    """The stage of each tape node, read from its backward closure's
    qualified name (``_Stages.block.<locals>.backward`` -> ``block``)."""
    return [backward.__qualname__.split(".")[1] for backward in nodes]


def grad_rel_error(ad: np.ndarray, fd: np.ndarray) -> float:
    """Max abs difference scaled by the gradient's own magnitude."""
    denom = max(np.abs(fd).max(), np.abs(ad).max(), 1e-12)
    return float(np.abs(ad - fd).max() / denom)


@pytest.fixture(scope="session")
def tiny_config():
    return ViTConfig(num_classes=3, **TINY)


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    from bicam.vit import new_model
    return new_model(tiny_config, seed=0)


@pytest.fixture(scope="session")
def toy_config():
    return ViTConfig(num_classes=2, **TINY)


@pytest.fixture(scope="session")
def toy_trained(toy_config):
    """Trained stripe-orientation classifier (seed pinned to a converging run)."""
    model, losses = train_toy_model(toy_config, seed=7, steps=500)
    assert losses[-1] < 0.1, "toy training regressed; pinned seed no longer converges"
    return model


@pytest.fixture(scope="session")
def weak_test_set(toy_config):
    """Low-amplitude stripe images: the regime where an 8/255 budget can
    overwrite the class pattern."""
    return make_pattern_dataset(toy_config, per_class=6, seed=99,
                                amp_lo=0.03, amp_hi=0.07)
