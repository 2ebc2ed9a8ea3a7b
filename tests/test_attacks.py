import math

import numpy as np
import pytest

from bicam.attacks import AttackConfig, mifgsm_attack, pgd_attack, run_attack
from bicam.errors import ParameterError


class LinearToy:
    """Two-class model with logits [w.x, 0]; loss is convex in the input."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def loss_and_input_grad(self, image, label):
        label = int(np.atleast_1d(label)[0])
        z = float((self.w * image).sum())
        m = max(z, 0.0)
        lse = m + math.log(math.exp(z - m) + math.exp(-m))
        loss = lse - (z if label == 0 else 0.0)
        p0 = math.exp(z - lse)
        grad = (p0 - (1.0 if label == 0 else 0.0)) * self.w
        return loss, grad


class Recording:
    """Wraps a model and keeps a copy of every image handed to
    ``loss_and_input_grad``: an attack's iterates before its last step."""

    def __init__(self, model):
        self.model, self.images = model, []

    def loss_and_input_grad(self, image, label):
        self.images.append(np.array(image, copy=True))
        return self.model.loss_and_input_grad(image, label)


def trajectory(fn, model, image, cfg):
    """Every iterate of one attack, the start first and the result last."""
    recording = Recording(model)
    adv = fn(recording, image, 0, cfg)
    assert len(recording.images) == cfg.num_steps
    return recording.images + [adv]


@pytest.fixture
def lin_model():
    rng = np.random.default_rng(0)
    return LinearToy(rng.standard_normal((1, 3, 8, 8)))


@pytest.fixture
def lin_image():
    return np.random.default_rng(1).random((1, 3, 8, 8))


def test_config_validation():
    with pytest.raises(ParameterError):
        AttackConfig(method="cw")
    with pytest.raises(ParameterError):
        AttackConfig(epsilon=-0.1)
    with pytest.raises(ParameterError):
        AttackConfig(step_size=0.0)
    with pytest.raises(ParameterError):
        AttackConfig(num_steps=0)
    with pytest.raises(ParameterError):
        AttackConfig(momentum_decay=1.5)
    AttackConfig(epsilon=0.0)  # degenerate no-op budget is allowed


def test_input_range_validation(lin_model):
    with pytest.raises(ParameterError):
        pgd_attack(lin_model, np.full((1, 3, 8, 8), 1.5), 0, AttackConfig())


def test_epsilon_zero_returns_image_bitwise(lin_model, lin_image):
    cfg = AttackConfig(method="pgd", epsilon=0.0, step_size=0.01, num_steps=3)
    adv = pgd_attack(lin_model, lin_image, 0, cfg)
    assert np.array_equal(adv, lin_image)
    cfg = AttackConfig(method="mifgsm", epsilon=0.0, step_size=0.01, num_steps=3)
    assert np.array_equal(mifgsm_attack(lin_model, lin_image, 0, cfg), lin_image)


def test_single_step_pgd_reduces_to_fgsm(lin_model, lin_image):
    step = 2.0 / 255.0
    cfg = AttackConfig(method="pgd", epsilon=8.0 / 255.0, step_size=step,
                       num_steps=1, random_start=False)
    adv = pgd_attack(lin_model, lin_image, 0, cfg)
    _, grad = lin_model.loss_and_input_grad(lin_image, 0)
    fgsm = np.clip(lin_image + step * np.sign(grad), 0.0, 1.0)
    assert np.array_equal(adv, fgsm)


def test_mifgsm_one_step_no_momentum_equals_pgd_no_random(lin_model, lin_image):
    kw = dict(epsilon=8.0 / 255.0, step_size=2.0 / 255.0, num_steps=1)
    adv_p = pgd_attack(lin_model, lin_image, 0,
                       AttackConfig(method="pgd", random_start=False, **kw))
    adv_m = mifgsm_attack(lin_model, lin_image, 0,
                          AttackConfig(method="mifgsm", momentum_decay=0.0, **kw))
    assert np.array_equal(adv_p, adv_m)


@pytest.mark.parametrize("method", ["pgd", "mifgsm"])
@pytest.mark.parametrize("eps,step,steps", [
    (8 / 255, 2 / 255, 10), (0.05, 0.02, 5), (0.003, 0.01, 7)])
def test_ball_and_range_constraints_every_iterate(lin_model, lin_image,
                                                  method, eps, step, steps):
    cfg = AttackConfig(method=method, epsilon=eps, step_size=step, num_steps=steps,
                       momentum_decay=0.8, seed=5)
    fn = pgd_attack if method == "pgd" else mifgsm_attack
    traj = trajectory(fn, lin_model, lin_image, cfg)
    for x in traj:
        assert np.abs(x - lin_image).max() <= eps + 1e-9
        assert x.min() >= 0.0 and x.max() <= 1.0


def test_mifgsm_loss_monotone_on_linear_model(lin_model, lin_image):
    cfg = AttackConfig(method="mifgsm", epsilon=0.1, step_size=0.01,
                       num_steps=8, momentum_decay=0.0)
    traj = trajectory(mifgsm_attack, lin_model, lin_image, cfg)
    losses = [lin_model.loss_and_input_grad(x, 0)[0] for x in traj]
    for lo, hi in zip(losses, losses[1:]):
        assert hi >= lo - 1e-12


def test_pgd_loss_monotone_on_linear_model_without_random_start(lin_model, lin_image):
    cfg = AttackConfig(method="pgd", epsilon=0.1, step_size=0.01, num_steps=8,
                       random_start=False)
    traj = trajectory(pgd_attack, lin_model, lin_image, cfg)
    losses = [lin_model.loss_and_input_grad(x, 0)[0] for x in traj]
    for lo, hi in zip(losses, losses[1:]):
        assert hi >= lo - 1e-12


def test_determinism_given_seed(lin_model, lin_image):
    # one step leaves the random start visible in the output
    cfg = AttackConfig(method="pgd", num_steps=1, seed=42)
    a = pgd_attack(lin_model, lin_image, 0, cfg)
    b = pgd_attack(lin_model, lin_image, 0, cfg)
    assert np.array_equal(a, b)
    c = pgd_attack(lin_model, lin_image, 0,
                   AttackConfig(method="pgd", num_steps=1, seed=43))
    assert not np.array_equal(a, c)


def test_run_attack_dispatch(lin_model, lin_image):
    adv = run_attack(lin_model, lin_image, 0, AttackConfig(method="mifgsm"))
    assert adv.shape == lin_image.shape


def test_attack_raises_loss_on_trained_vit(toy_trained, weak_test_set):
    images, labels = weak_test_set
    cfg = AttackConfig(method="pgd", epsilon=8 / 255, step_size=2 / 255,
                       num_steps=10, seed=3)
    worse = 0
    for i in range(4):
        img, lab = images[i:i + 1], int(labels[i])
        before, _ = toy_trained.loss_and_input_grad(img, lab)
        adv = pgd_attack(toy_trained, img, lab, cfg)
        after, _ = toy_trained.loss_and_input_grad(adv, lab)
        assert after >= before - 1e-9
        worse += after > before
    assert worse >= 3  # ascent actually moves the loss on most samples
