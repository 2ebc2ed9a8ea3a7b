import numpy as np
import pytest

from bicam.attribution import AttributionMap
from bicam.errors import ContractError, DimensionError
from bicam.evaluation import (FaithfulnessReport, binarize, class_probability_fn,
                              evaluate_bidirectional, faithfulness,
                              localization_metrics, minmax_normalize,
                              random_order_faithfulness, removal_curve)


# -- binarize -------------------------------------------------------------------


def test_binarize_two_values():
    assert np.array_equal(binarize(np.array([0.0, 10.0])), [0, 1])


def test_binarize_constant_grid_all_zero():
    assert np.array_equal(binarize(np.full((3, 3), 2.5)), np.zeros((3, 3), np.uint8))


def test_binarize_hand_case():
    assert np.array_equal(binarize(np.array([1.0, 2.0, 3.0, 4.0])), [0, 0, 1, 1])


def test_minmax_normalize_range():
    g = np.random.default_rng(0).standard_normal((4, 4))
    n = minmax_normalize(g)
    assert n.min() == 0.0 and n.max() == 1.0


# -- localization metrics -----------------------------------------------------------


def test_localization_hand_case():
    rep = localization_metrics(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))
    assert rep.iou == pytest.approx(1 / 3)
    assert rep.precision == 0.5
    assert rep.recall == 0.5
    assert rep.f1 == 0.5
    assert rep.pixel_accuracy == 0.5


def test_localization_perfect_match():
    m = np.random.default_rng(1).integers(0, 2, (8, 8))
    rep = localization_metrics(m, m)
    if m.any():
        assert (rep.pixel_accuracy, rep.iou, rep.f1, rep.precision, rep.recall) == \
            (1.0, 1.0, 1.0, 1.0, 1.0)


def test_localization_zero_denominators():
    rep = localization_metrics(np.zeros(4), np.zeros(4))
    assert rep.iou == 0.0 and rep.precision == 0.0 and rep.recall == 0.0
    assert rep.pixel_accuracy == 1.0
    rep = localization_metrics(np.zeros(4), np.ones(4))
    assert rep.recall == 0.0 and rep.precision == 0.0


def test_localization_shape_mismatch():
    with pytest.raises(DimensionError):
        localization_metrics(np.zeros(4), np.zeros(5))


def naive_counting_metrics(pred, gt):
    tp = fp = fn = tn = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        if p and g:
            tp += 1
        elif p and not g:
            fp += 1
        elif not p and g:
            fn += 1
        else:
            tn += 1
    tot = tp + fp + fn + tn
    return (
        (tp + tn) / tot,
        tp / (tp + fp + fn) if tp + fp + fn else 0.0,
        2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
        tp / (tp + fp) if tp + fp else 0.0,
        tp / (tp + fn) if tp + fn else 0.0,
    )


def test_localization_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pred = rng.integers(0, 2, (8, 8))
        gt = rng.integers(0, 2, (8, 8))
        rep = localization_metrics(pred, gt)
        want = naive_counting_metrics(pred, gt)
        got = (rep.pixel_accuracy, rep.iou, rep.f1, rep.precision, rep.recall)
        assert got == want


def test_iou_symmetric_and_accuracy_complement_invariant():
    rng = np.random.default_rng(3)
    pred = rng.integers(0, 2, (10, 10))
    gt = rng.integers(0, 2, (10, 10))
    assert localization_metrics(pred, gt).iou == localization_metrics(gt, pred).iou
    a = localization_metrics(pred, gt).pixel_accuracy
    b = localization_metrics(1 - pred, 1 - gt).pixel_accuracy
    assert a == b


def test_f1_iou_ordering():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rep = localization_metrics(rng.integers(0, 2, 30), rng.integers(0, 2, 30))
        assert rep.iou <= rep.f1 <= 1.0


# -- bidirectional evaluation ----------------------------------------------------------


def make_map(heat):
    heat = np.asarray(heat, dtype=np.float64)
    return AttributionMap(patch_scores=heat[None], heatmap=heat[None, None], class_index=0)


def test_bidirectional_perfect_attribution():
    target = np.zeros((4, 4), np.uint8)
    target[:2] = 1
    nontarget = np.zeros((4, 4), np.uint8)
    nontarget[2:] = 1
    heat = np.where(target, 1.0, -1.0)
    pos_rep, neg_rep = evaluate_bidirectional(make_map(heat), target, nontarget)
    for rep in (pos_rep, neg_rep):
        assert (rep.pixel_accuracy, rep.iou, rep.f1, rep.precision, rep.recall) == \
            (1.0, 1.0, 1.0, 1.0, 1.0)
    assert pos_rep.channel == "positive" and neg_rep.channel == "negative"


def test_bidirectional_all_positive_map_has_zero_negative_recall():
    target = np.ones((4, 4), np.uint8)
    nontarget = np.ones((4, 4), np.uint8)
    heat = np.abs(np.random.default_rng(5).standard_normal((4, 4))) + 0.1
    _, neg_rep = evaluate_bidirectional(make_map(heat), target, nontarget)
    assert neg_rep.recall == 0.0


def test_bidirectional_fallback_unified():
    target = np.zeros((4, 4), np.uint8)
    target[1, 1] = 1
    heat = np.random.default_rng(6).standard_normal((4, 4))
    uni, neg = evaluate_bidirectional(make_map(heat), target, None)
    assert neg is None
    assert uni.channel == "unified"
    assert uni.fallback_unified


def test_unified_vs_channel_scoring_documented_difference():
    # 4x4 case: target = top half; the map is +1 on the top-left quadrant and
    # -1 on the top-right quadrant. The positive channel finds only the
    # top-left quadrant (recall 1/2 vs target top half); unified scoring of
    # |map| binarizes both quadrants to 1 and reaches recall 1 with the same
    # precision.
    target = np.zeros((4, 4), np.uint8)
    target[:2] = 1
    heat = np.zeros((4, 4))
    heat[:2, :2] = 1.0
    heat[:2, 2:] = -1.0
    pos_rep, _ = evaluate_bidirectional(make_map(heat), target, np.zeros((4, 4)))
    uni_rep = localization_metrics(binarize(np.abs(heat)), target)
    assert pos_rep.recall == 0.5
    assert uni_rep.recall == 1.0
    assert pos_rep.precision == 1.0 and uni_rep.precision == 1.0


def test_bidirectional_requires_single_image():
    heat = np.zeros((2, 1, 4, 4))
    amap = AttributionMap(patch_scores=np.zeros((2, 2, 2)), heatmap=heat, class_index=0)
    with pytest.raises(ContractError):
        evaluate_bidirectional(amap, np.zeros((4, 4)))


# -- faithfulness -----------------------------------------------------------------------


class LinearPatchModel:
    """probability = softmax([sum_i c_i * mean(patch_i), 0])[0]."""

    def __init__(self, coefs, patch_size, grid):
        self.coefs = np.asarray(coefs, dtype=np.float64)
        self.patch_size = patch_size
        self.grid = grid

    def patch_means(self, image):
        p = self.patch_size
        gh, gw = self.grid
        return np.array([[image[..., r * p:(r + 1) * p, c * p:(c + 1) * p].mean()
                          for c in range(gw)] for r in range(gh)])

    def prob(self, image):
        z = float((self.coefs * self.patch_means(image)).sum())
        return 1.0 / (1.0 + np.exp(-z))

    def attribution(self, image):
        return self.coefs * self.patch_means(image)


@pytest.fixture
def linear_setup():
    rng = np.random.default_rng(7)
    grid = (4, 4)
    model = LinearPatchModel(rng.standard_normal(grid), 4, grid)
    image = rng.random((3, 16, 16)) * 0.8 + 0.1
    return model, image


def test_zero_patches_zeroes_blocks():
    # removal_curve's step k zeroes exactly the first k blocks of the order
    img = np.ones((3, 8, 12))   # a 2x3 grid of 4x4 patches
    order, blocks = [4, 0, 5, 2], [(1, 1), (0, 0), (1, 2), (0, 2)]   # (row, column)
    seen = []
    curve = removal_curve(lambda x: seen.append(x.copy()) or len(seen), img, order,
                          patch_size=4, grid_width=3)
    assert np.array_equal(curve, [1, 2, 3, 4, 5])
    for k, x in enumerate(seen):
        want = np.ones((3, 8, 12))
        for r, c in blocks[:k]:
            want[:, r * 4:(r + 1) * 4, c * 4:(c + 1) * 4] = 0.0
        assert np.array_equal(x, want), k
    assert img.min() == 1.0  # input untouched


def test_faithfulness_needs_a_2d_grid(linear_setup):
    model, image = linear_setup
    scores = model.attribution(image)
    for bad in (scores.ravel(), scores[None]):
        with pytest.raises(DimensionError, match="2-D grid"):
            faithfulness(model.prob, image, bad, patch_size=4)


def test_curve_endpoints(linear_setup):
    model, image = linear_setup
    scores = model.attribution(image)
    rep = faithfulness(model.prob, image, scores, patch_size=4)
    p0 = model.prob(image)
    assert rep.mif_curve[0] == p0 and rep.lif_curve[0] == p0
    assert rep.mif_curve[-1] == rep.lif_curve[-1]  # same terminal state
    assert len(rep.mif_curve) == 17
    assert rep.faithfulness == rep.lif_auc - rep.mif_auc


def test_exact_ordering_dominates_random_orders(linear_setup):
    model, image = linear_setup
    scores = model.attribution(image)
    rep = faithfulness(model.prob, image, scores, patch_size=4)
    rng = np.random.default_rng(8)
    for _ in range(50):
        order = rng.permutation(16)
        curve = removal_curve(model.prob, image, order, 4, 4)
        assert (rep.mif_curve <= curve + 1e-12).all()
        reversed_auc = float(removal_curve(model.prob, image, order[::-1], 4, 4).mean())
        rand_faith = reversed_auc - float(curve.mean())
        assert rep.faithfulness >= rand_faith - 1e-12


def test_random_baseline_mean_near_zero(linear_setup):
    model, image = linear_setup
    vals = [random_order_faithfulness(model.prob, image, (4, 4), 4, seed).faithfulness
            for seed in range(30)]
    assert abs(float(np.mean(vals))) < 0.05


def test_random_baseline_deterministic(linear_setup):
    model, image = linear_setup
    a = random_order_faithfulness(model.prob, image, (4, 4), 4, seed=5)
    b = random_order_faithfulness(model.prob, image, (4, 4), 4, seed=5)
    assert np.array_equal(a.mif_curve, b.mif_curve)
    assert a.faithfulness == b.faithfulness


def test_monotone_rescaling_leaves_report_bitwise_identical(linear_setup):
    model, image = linear_setup
    scores = model.attribution(image)
    base = faithfulness(model.prob, image, scores, patch_size=4)
    for transform in (lambda x: 2.0 * x + 7.0, lambda x: x ** 3):
        rep = faithfulness(model.prob, image, transform(scores), patch_size=4)
        assert np.array_equal(rep.mif_curve, base.mif_curve)
        assert np.array_equal(rep.lif_curve, base.lif_curve)
        assert rep.faithfulness == base.faithfulness


def test_faithfulness_on_vit(toy_trained, weak_test_set):
    from bicam.attribution import bicam
    images, labels = weak_test_set
    img, c = images[0], int(labels[0])
    amap = bicam(toy_trained, img[None], c)
    rep = faithfulness(class_probability_fn(toy_trained, c), img,
                       amap.patch_scores[0], patch_size=4)
    assert np.isfinite(rep.faithfulness)
    assert len(rep.mif_curve) == 17
    assert isinstance(rep, FaithfulnessReport)


def test_random_order_mif_lif_exchangeable_across_seeds(linear_setup):
    # reversing a uniform random permutation is again uniform, so the MIF and
    # LIF AUC samples should be statistically indistinguishable across seeds
    model, image = linear_setup
    reps = [random_order_faithfulness(model.prob, image, (4, 4), 4, seed)
            for seed in range(50)]
    mif = np.array([r.mif_auc for r in reps])
    lif = np.array([r.lif_auc for r in reps])
    pooled_se = np.sqrt((mif.var() + lif.var()) / len(reps))
    assert abs(mif.mean() - lif.mean()) <= 4.0 * pooled_se + 1e-12
