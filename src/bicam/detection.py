"""Positive-to-negative ratio statistics and detection scoring.

PNR summarizes a signed patch grid as sum(positive) / (sum(negative) + eps);
adversarial perturbations tend to inflate it. Detection quality is scored
from one sorted sweep over the scores (Fawcett 2006): one sort gives, per
distinct score, the adversarial and clean counts at it and at or above it,
in O(n log n). AUROC (the tie-corrected Mann-Whitney U), step-integrated
AUPR and the decision threshold maximizing Youden's J = sensitivity +
specificity - 1 are each read from that table.

ROC scoring uses raw per-sample PNR (deployable without a clean twin);
delta-PNR statistics are reported separately from records whose ids pair
across the clean/adversarial labels. ``write_table`` is the one CSV dialect
of the records and of every table the CLI writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attribution import split_channels
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


def check_pnr_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ParameterError(f"pnr epsilon must be finite and > 0, got {epsilon}")


def pnr(attribution, epsilon: float = DEFAULT_PNR_EPSILON) -> float:
    """sum(max(M, 0)) / (sum(max(-M, 0)) + epsilon) over patch scores."""
    check_pnr_epsilon(epsilon)
    pos, neg = split_channels(attribution)
    return float(pos.sum() / (neg.sum() + epsilon))


def _count_table(scores: np.ndarray, is_adv: np.ndarray):
    """The one sort: distinct scores ascending, with the adversarial and
    clean counts at each score (adv, clean) and at or above it (tp, fp)."""
    values, inverse = np.unique(scores, return_inverse=True)
    adv = np.bincount(inverse[is_adv], minlength=len(values))
    clean = np.bincount(inverse, minlength=len(values)) - adv
    tp = np.cumsum(adv[::-1])[::-1]
    fp = np.cumsum(clean[::-1])[::-1]
    return values, adv, clean, tp, fp


def _auroc(table, n1: int, n0: int) -> float:
    """Mann-Whitney U over n1 * n0: each adversarial record beats the clean
    records below its score and ties those at it. 2U is an integer, so the
    result is exact."""
    _, adv, clean, _, fp = table
    return float((2 * adv * (n0 - fp) + adv * clean).sum() / 2 / (n1 * n0))


def _aupr(table, n1: int) -> float:
    """Precision-recall steps at every distinct threshold, highest first
    (adversarial = positive class)."""
    _, _, _, tp, fp = table
    precision, recall = (tp / (tp + fp))[::-1], (tp / n1)[::-1]
    return float(((recall - np.concatenate(([0.0], recall[:-1]))) * precision).sum())


def _youden(table, n1: int, n0: int) -> tuple[float, float, float]:
    """Threshold maximizing sensitivity + specificity - 1 over observed
    scores (predict adversarial when score >= threshold). The scan runs
    ascending and moves only on a gain above 1e-15, so near-ties go to the
    smaller threshold."""
    values, _, _, tp, fp = table
    sens, spec = tp / n1, (n0 - fp) / n0
    j = (sens + spec - 1.0).tolist()
    best = 0
    for i, ji in enumerate(j):
        if ji > j[best] + 1e-15:
            best = i
    return float(values[best]), float(sens[best]), float(spec[best])


def _paired_deltas(records) -> np.ndarray:
    by_label: dict[str, dict[str, float]] = {CLEAN: {}, ADVERSARIAL: {}}
    for r in records:
        if r.sample_id in by_label[r.label]:
            raise ContractError(f"duplicate record for id {r.sample_id!r} label {r.label!r}")
        by_label[r.label][r.sample_id] = r.pnr
    common = sorted(set(by_label[CLEAN]) & set(by_label[ADVERSARIAL]))
    return np.array([by_label[ADVERSARIAL][i] - by_label[CLEAN][i] for i in common])


def roc_analysis(records) -> DetectionReport:
    """Score a mixed set of clean/adversarial PNR records, a higher PNR
    scoring as more adversarial.

    Requires at least one record of each label. The scores are sorted
    once; AUROC equals pairwise comparison counting (ties at half credit);
    AUPR integrates the precision-recall steps at every distinct threshold.
    """
    records = list(records)
    labels = np.array([r.label == ADVERSARIAL for r in records])
    n1, n0 = int(labels.sum()), int((~labels).sum())
    if n1 == 0 or n0 == 0:
        raise ContractError("roc_analysis needs at least one record of each label")
    scores = np.array([r.pnr for r in records], dtype=np.float64)

    table = _count_table(scores, labels)
    thr, sens, spec = _youden(table, n1, n0)
    deltas = _paired_deltas(records)
    return DetectionReport(
        auroc=_auroc(table, n1, n0),
        aupr=_aupr(table, n1),
        threshold=thr,
        sensitivity=sens,
        specificity=spec,
        delta_pnr_mean=float(deltas.mean()) if deltas.size else math.nan,
        delta_pnr_std=float(deltas.std()) if deltas.size else math.nan,
        num_clean=n0,
        num_adversarial=n1,
    )


# -- record files (CSV: id,label,pnr) ----------------------------------------


FLOAT_FORMAT = "%.17g"   # every number bicam writes: reads back as the same float


def format_float(x) -> str:
    return FLOAT_FORMAT % float(x)


def write_table(path: str, header, rows) -> None:
    """The one CSV dialect of every table bicam writes: a header line, then
    one line per row, strings as they are and numbers by ``format_float``.
    Lines end in LF, and a field is quoted, as the csv module quotes, when
    it holds a comma, a quote, a line feed or a carriage return (csv.reader
    ends a record at an unquoted one). The csv module quotes the characters
    of its line terminator, so each row is made with CR LF and written with
    LF in its place (the writer writes one row per call): a file with no
    carriage return has the bytes of a csv writer with LF line ends.
    ``cli.write_grid_csv`` writes the headerless number grids in the same
    bytes with a row template of its own, which is faster for them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        lf_ends = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
        out = csv.writer(lf_ends, lineterminator="\r\n")
        out.writerow(header)
        out.writerows([v if isinstance(v, str) else format_float(v) for v in row]
                      for row in rows)


def write_records(path: str, records) -> None:
    """One id,label,pnr line per record, by ``write_table``."""
    write_table(path, ("id", "label", "pnr"), ((r.sample_id, r.label, r.pnr) for r in records))


def read_records(path: str) -> list[PNRRecord]:
    """The records of a file ``write_records`` wrote; blank lines are
    skipped, and anything else that is not a record is a DataFormatError."""
    out = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh, strict=True)
            header = ",".join(next(rows, [])).strip()
            if header != "id,label,pnr":
                raise DataFormatError(f"expected header 'id,label,pnr', got {header!r}")
            for row in rows:
                if len(row) < 2 and not "".join(row).strip():
                    continue
                if len(row) != 3:
                    raise DataFormatError(f"{path}:{rows.line_num}: expected 3 fields")
                try:
                    out.append(PNRRecord(row[0], float(row[2]), row[1]))
                except (ValueError, ParameterError) as e:
                    raise DataFormatError(f"{path}:{rows.line_num}: {e}") from None
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not utf-8 text (byte {e.start})") from None
    except csv.Error as e:
        raise DataFormatError(f"{path}:{rows.line_num}: {e}") from None
    return out
