"""Attribution-quality protocols: localization and patch-removal faithfulness.

Localization: min-max scale a heatmap channel to [0, 1] per image, threshold
at 0.5, and count per-pixel agreement with a binary ground-truth mask.
Positive and negative channels are scored separately (against target and
non-target masks); a unified fallback scores the raw signed map when no
non-target mask exists.

Faithfulness: zero out patches one at a time, most-important-first (MIF) or
least-important-first (LIF), tracking the model's probability for the
queried class; the score is AUC(LIF) - AUC(MIF) with AUC the mean of the
P+1 curve samples. Orderings depend only on attribution rank, so any
strictly monotone rescaling of the map leaves the report unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attribution import AttributionMap, split_channels
from .errors import ContractError, DimensionError
from .vit import VisionTransformer


@dataclass
class LocalizationReport:
    pixel_accuracy: float
    iou: float
    f1: float
    precision: float
    recall: float
    channel: str = "unified"            # unified | positive | negative
    fallback_unified: bool = False      # set when a non-target mask was missing


@dataclass
class FaithfulnessReport:
    mif_auc: float
    lif_auc: float
    faithfulness: float                 # lif_auc - mif_auc, exactly
    mif_curve: np.ndarray = field(repr=False)
    lif_curve: np.ndarray = field(repr=False)


def minmax_normalize(grid: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant grid maps to all zeros."""
    g = np.asarray(grid, dtype=np.float64)
    lo, hi = g.min(), g.max()
    if hi == lo:
        return np.zeros_like(g)
    return (g - lo) / (hi - lo)


def binarize(grid: np.ndarray) -> np.ndarray:
    """Min-max scale then threshold at 0.5 (strictly greater)."""
    return (minmax_normalize(grid) > 0.5).astype(np.uint8)


def localization_metrics(pred: np.ndarray, gt: np.ndarray,
                         channel: str = "unified",
                         fallback_unified: bool = False) -> LocalizationReport:
    """Per-pixel TP/FP/FN/TN counting; zero-denominator metrics are 0."""
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    tp = int((p & g).sum())
    fp = int((p & ~g).sum())
    fn = int((~p & g).sum())
    tn = int((~p & ~g).sum())

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    return LocalizationReport(
        pixel_accuracy=ratio(tp + tn, tp + fp + fn + tn),
        iou=ratio(tp, tp + fp + fn),
        f1=ratio(2 * tp, 2 * tp + fp + fn),
        precision=precision,
        recall=recall,
        channel=channel,
        fallback_unified=fallback_unified,
    )


def evaluate_bidirectional(amap: AttributionMap, target_gt: np.ndarray,
                           nontarget_gt: np.ndarray | None = None):
    """Score the positive channel against the target mask and the negative
    channel against the non-target mask.

    Returns (positive_report, negative_report). Without a non-target mask
    the signed heatmap is scored unified against the target instead and the
    report is flagged; the second element is then None.
    """
    if amap.heatmap.shape[0] != 1:
        raise ContractError("bidirectional evaluation expects a single-image map")
    heat = amap.heatmap[0, 0]
    if nontarget_gt is None:
        unified = localization_metrics(binarize(heat), target_gt,
                                       channel="unified", fallback_unified=True)
        return unified, None
    pos, neg = split_channels(heat)
    pos_report = localization_metrics(binarize(pos), target_gt, channel="positive")
    neg_report = localization_metrics(binarize(neg), nontarget_gt, channel="negative")
    return pos_report, neg_report


# -- faithfulness -------------------------------------------------------------


def removal_curve(prob_fn, image: np.ndarray, order: np.ndarray,
                  patch_size: int, grid_width: int) -> np.ndarray:
    """Class probability after removing the first k patches of ``order``,
    for k = 0 .. P; patches are zeroed cumulatively in pixel space, as
    whole pixel blocks in every channel, on a copy of ``image``."""
    work = np.array(image, dtype=np.float64, copy=True)
    curve = np.empty(len(order) + 1)
    curve[0] = float(prob_fn(work))
    p = patch_size
    for step, k in enumerate(order, start=1):
        r, c = divmod(int(k), grid_width)
        work[..., r * p:(r + 1) * p, c * p:(c + 1) * p] = 0.0
        curve[step] = float(prob_fn(work))
    return curve


def _orders(flat_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # stable sorts so tied scores keep index order under monotone rescaling
    mif = np.argsort(-flat_scores, kind="stable")
    lif = np.argsort(flat_scores, kind="stable")
    return mif, lif


def faithfulness(prob_fn, image: np.ndarray, patch_scores: np.ndarray,
                 patch_size: int) -> FaithfulnessReport:
    """MIF and LIF removal curves from one attribution; AUC is the curve mean.

    ``prob_fn`` maps an image to the scalar probability of the queried
    class; ``patch_scores`` is the signed per-patch grid [rows, columns]
    that supplies the removal order.
    """
    scores = np.asarray(patch_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise DimensionError(f"patch scores must be a 2-D grid, got shape {scores.shape}")
    mif_order, lif_order = _orders(scores.ravel())
    mif_curve = removal_curve(prob_fn, image, mif_order, patch_size, scores.shape[1])
    lif_curve = removal_curve(prob_fn, image, lif_order, patch_size, scores.shape[1])
    mif_auc = float(mif_curve.mean())
    lif_auc = float(lif_curve.mean())
    return FaithfulnessReport(mif_auc=mif_auc, lif_auc=lif_auc,
                              faithfulness=lif_auc - mif_auc,
                              mif_curve=mif_curve, lif_curve=lif_curve)


def random_order_faithfulness(prob_fn, image: np.ndarray, grid_shape,
                              patch_size: int, seed: int) -> FaithfulnessReport:
    """Control condition: the same protocol driven by random patch scores."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scores = rng.standard_normal(grid_shape)
    return faithfulness(prob_fn, image, scores, patch_size)


def class_probability_fn(model: VisionTransformer, class_index: int):
    """Adapter: image -> model softmax probability of ``class_index``."""
    c = int(class_index)

    def prob(image: np.ndarray) -> float:
        return float(model.predict_proba(image)[0, c])

    return prob
