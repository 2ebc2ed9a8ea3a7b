"""Positive-to-negative ratio statistics and detection scoring.

PNR summarizes a signed patch grid as sum(positive) / (sum(negative) + eps);
adversarial perturbations tend to inflate it. Detection quality is scored
with rank-based AUROC (tie-corrected), step-integrated AUPR, and a decision
threshold chosen by maximizing Youden's J = sensitivity + specificity - 1.

ROC scoring uses raw per-sample PNR (deployable without a clean twin);
delta-PNR statistics are reported separately from records whose ids pair
across the clean/adversarial labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attribution import AttributionMap
from .errors import ContractError, DataFormatError, ParameterError

CLEAN = "clean"
ADVERSARIAL = "adversarial"
DEFAULT_PNR_EPSILON = 1e-8


@dataclass(frozen=True)
class PNRRecord:
    sample_id: str
    pnr: float
    label: str

    def __post_init__(self):
        if self.label not in (CLEAN, ADVERSARIAL):
            raise ParameterError(f"label must be clean|adversarial, got {self.label!r}")
        if not 0 <= self.pnr < math.inf:
            raise ParameterError(
                f"pnr is a finite ratio of nonnegative sums, got {self.pnr}")


@dataclass
class DetectionReport:
    auroc: float
    aupr: float
    threshold: float
    sensitivity: float
    specificity: float
    delta_pnr_mean: float      # NaN when no ids pair across labels
    delta_pnr_std: float
    num_clean: int
    num_adversarial: int
    higher_is_adversarial: bool = True


def _scores(values) -> np.ndarray:
    if isinstance(values, AttributionMap):
        return values.patch_scores
    return np.asarray(values, dtype=np.float64)


def pnr(attribution, epsilon: float = DEFAULT_PNR_EPSILON) -> float:
    """sum(max(M, 0)) / (sum(max(-M, 0)) + epsilon) over patch scores."""
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    m = _scores(attribution)
    pos = np.maximum(m, 0.0).sum()
    neg = np.maximum(-m, 0.0).sum()
    return float(pos / (neg + epsilon))


def delta_pnr(clean_map, adv_map, epsilon: float = DEFAULT_PNR_EPSILON) -> float:
    """PNR of the adversarial map minus PNR of its clean counterpart."""
    return pnr(adv_map, epsilon) - pnr(clean_map, epsilon)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); ties get the mean of their positions."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sval = values[order]
    i = 0
    while i < len(sval):
        j = i
        while j + 1 < len(sval) and sval[j + 1] == sval[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _auroc(scores: np.ndarray, is_adv: np.ndarray) -> float:
    n1 = int(is_adv.sum())
    n0 = len(scores) - n1
    ranks = _average_ranks(scores)
    u = ranks[is_adv].sum() - n1 * (n1 + 1) / 2.0
    return float(u / (n1 * n0))


def _aupr(scores: np.ndarray, is_adv: np.ndarray) -> float:
    """Step-integrated precision-recall area (adversarial = positive class)."""
    n1 = int(is_adv.sum())
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = is_adv[order].astype(np.float64)
    tp = np.cumsum(y)
    k = np.arange(1, len(s) + 1)
    # evaluate only at the last index of each tied run (one point per threshold)
    boundary = np.ones(len(s), dtype=bool)
    boundary[:-1] = s[:-1] != s[1:]
    precision = tp[boundary] / k[boundary]
    recall = tp[boundary] / n1
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(((recall - prev) * precision).sum())


def _youden(scores: np.ndarray, is_adv: np.ndarray) -> tuple[float, float, float]:
    """Threshold maximizing sensitivity + specificity - 1 over observed
    scores (predict adversarial when score >= threshold); ties go to the
    smaller threshold."""
    n1 = int(is_adv.sum())
    n0 = len(scores) - n1
    best = None
    for t in np.unique(scores):  # ascending, so strict improvement keeps the smallest
        sens = float((scores[is_adv] >= t).sum()) / n1
        spec = float((scores[~is_adv] < t).sum()) / n0
        j = sens + spec - 1.0
        if best is None or j > best[0] + 1e-15:
            best = (j, float(t), sens, spec)
    return best[1], best[2], best[3]


def _paired_deltas(records) -> np.ndarray:
    by_label: dict[str, dict[str, float]] = {CLEAN: {}, ADVERSARIAL: {}}
    for r in records:
        if r.sample_id in by_label[r.label]:
            raise ContractError(f"duplicate record for id {r.sample_id!r} label {r.label!r}")
        by_label[r.label][r.sample_id] = r.pnr
    common = sorted(set(by_label[CLEAN]) & set(by_label[ADVERSARIAL]))
    return np.array([by_label[ADVERSARIAL][i] - by_label[CLEAN][i] for i in common])


def roc_analysis(records, higher_is_adversarial: bool = True) -> DetectionReport:
    """Score a mixed set of clean/adversarial PNR records.

    Requires at least one record of each label. AUROC equals pairwise
    comparison counting (ties at half credit); AUPR integrates the
    precision-recall steps at every distinct threshold.
    """
    records = list(records)
    labels = np.array([r.label == ADVERSARIAL for r in records])
    n1, n0 = int(labels.sum()), int((~labels).sum())
    if n1 == 0 or n0 == 0:
        raise ContractError("roc_analysis needs at least one record of each label")
    raw = np.array([r.pnr for r in records], dtype=np.float64)
    scores = raw if higher_is_adversarial else -raw

    thr, sens, spec = _youden(scores, labels)
    deltas = _paired_deltas(records)
    return DetectionReport(
        auroc=_auroc(scores, labels),
        aupr=_aupr(scores, labels),
        threshold=thr if higher_is_adversarial else -thr,
        sensitivity=sens,
        specificity=spec,
        delta_pnr_mean=float(deltas.mean()) if deltas.size else math.nan,
        delta_pnr_std=float(deltas.std()) if deltas.size else math.nan,
        num_clean=n0,
        num_adversarial=n1,
        higher_is_adversarial=higher_is_adversarial,
    )


# -- record files (CSV: id,label,pnr) ----------------------------------------


def write_records(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,label,pnr\n")
        for r in records:
            fh.write(f"{r.sample_id},{r.label},{r.pnr:.17g}\n")


def read_records(path: str) -> list[PNRRecord]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not utf-8 text (byte {e.start})") from None
    header = lines[0].strip()
    if header != "id,label,pnr":
        raise DataFormatError(f"expected header 'id,label,pnr', got {header!r}")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{ln}: expected 3 fields")
        try:
            out.append(PNRRecord(parts[0], float(parts[2]), parts[1]))
        except (ValueError, ParameterError) as e:
            raise DataFormatError(f"{path}:{ln}: {e}") from None
    return out
