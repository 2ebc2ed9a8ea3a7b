import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicam.detection import PNRRecord, pnr, read_records, roc_analysis, write_records
from bicam.errors import ContractError, DataFormatError, ParameterError


# -- pnr --------------------------------------------------------------------------


def test_pnr_worked_values():
    eps = 1e-8
    assert pnr(np.array([1.0, 1.0, -1.0]), eps) == 2.0 / (1.0 + eps)
    assert pnr(np.array([2.0, 3.0]), eps) == 5.0 / eps
    assert pnr(np.array([2.0, 3.0]), eps) == pytest.approx(5e8)


def test_pnr_epsilon_validation():
    with pytest.raises(ParameterError):
        pnr(np.ones(3), 0.0)
    with pytest.raises(ParameterError):
        pnr(np.ones(3), -1e-9)


def test_pnr_reciprocal_identity():
    eps = 1e-8
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal(30)
        p = np.maximum(m, 0).sum()
        n = np.maximum(-m, 0).sum()
        want = (p * n) / ((n + eps) * (p + eps))
        assert pnr(m, eps) * pnr(-m, eps) == pytest.approx(want, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=40), st.randoms())
def test_pnr_permutation_invariance(values, pyrandom):
    m = np.array(values)
    perm = list(range(len(values)))
    pyrandom.shuffle(perm)
    a, b = pnr(m), pnr(m[perm])
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_pnr_scale_stability_bound():
    # pnr(kM) - pnr(M) = P*eps*(k-1) / ((kN+eps)(N+eps)) for k > 0
    eps = 1e-8
    rng = np.random.default_rng(1)
    for k in (0.25, 2.0, 1000.0):
        m = rng.standard_normal(50)
        p = np.maximum(m, 0).sum()
        n = np.maximum(-m, 0).sum()
        bound = p * eps * abs(k - 1.0) / ((k * n + eps) * (n + eps))
        diff = abs(pnr(k * m, eps) - pnr(m, eps))
        assert diff <= bound * (1 + 1e-9) + 1e-15


def _single_signed_maps():
    # no negative score (some exact zeros), as most toy-model maps are
    rng = np.random.default_rng(3)
    for shape in ((50,), (7, 7), (2, 14, 14)):
        m = rng.random(shape)
        m.reshape(-1)[::5] = 0.0
        yield m


def test_pnr_of_a_single_signed_map_is_its_mass_over_eps():
    # N = 0, so PNR = P / eps, with P summed in the same order as M.sum()
    for m in _single_signed_maps():
        for eps in (1e-8, 1e-4, 1.0):
            assert pnr(m, eps) == m.sum() / eps


def test_pnr_of_a_single_signed_map_scales_with_the_map_and_as_one_over_eps():
    # the two-signed bound above is loose here: P / eps is exactly linear in
    # the map and in 1 / eps
    eps = 1e-8
    for m in _single_signed_maps():
        base = pnr(m, eps)
        for k in (0.25, 2.0, 1000.0):
            assert pnr(k * m, eps) == pytest.approx(k * base, rel=1e-12, abs=0)
            assert pnr(m, k * eps) == pytest.approx(base / k, rel=1e-12, abs=0)


def test_pnr_accepts_attribution_map(tiny_model):
    from bicam.attribution import bicam
    img = np.random.default_rng(2).random((1, 3, 16, 16))
    amap = bicam(tiny_model, img, 0)
    assert pnr(amap) == pnr(amap.patch_scores)


def test_pnr_refuses_a_multi_image_map(tiny_model):
    # PNR is per image: the rows' masses are not pooled; a plain array is one grid
    from bicam.attribution import bicam
    batch = np.random.default_rng(2).random((2, 3, 16, 16))
    amap = bicam(tiny_model, batch, 0)
    with pytest.raises(ContractError, match="single-image map"):
        pnr(amap)
    assert pnr(amap.patch_scores) == pnr(amap.patch_scores.ravel())


# -- roc oracles ----------------------------------------------------------------------


def auroc_bruteforce(clean, adv):
    wins = 0.0
    for a in adv:
        for c in clean:
            wins += 1.0 if a > c else (0.5 if a == c else 0.0)
    return wins / (len(adv) * len(clean))


def aupr_bruteforce(clean, adv):
    scores = list(clean) + list(adv)
    labels = [0] * len(clean) + [1] * len(adv)
    points = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if y == 1 and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if y == 0 and s >= t)
        points.append((tp / len(adv), tp / (tp + fp)))
    area, prev_r = 0.0, 0.0
    for r, p in points:
        area += (r - prev_r) * p
        prev_r = r
    return area


def youden_bruteforce(clean, adv):
    best = None
    for t in sorted(set(list(clean) + list(adv))):
        sens = np.mean([a >= t for a in adv])
        spec = np.mean([c < t for c in clean])
        j = sens + spec - 1.0
        if best is None or j > best[0] + 1e-15:
            best = (j, t)
    return best


def records_from(clean, adv):
    recs = [PNRRecord(f"c{i}", float(v), "clean") for i, v in enumerate(clean)]
    recs += [PNRRecord(f"a{i}", float(v), "adversarial") for i, v in enumerate(adv)]
    return recs


def test_roc_perfect_separation():
    rep = roc_analysis(records_from([0.1, 0.2], [0.8, 0.9]))
    assert rep.auroc == 1.0
    assert rep.aupr == 1.0
    assert 0.2 < rep.threshold <= 0.8
    assert rep.sensitivity == 1.0 and rep.specificity == 1.0


def test_roc_identical_score_sets_is_half():
    rep = roc_analysis(records_from([0.3, 0.5, 0.7], [0.3, 0.5, 0.7]))
    assert rep.auroc == 0.5


def test_roc_single_class_rejected():
    with pytest.raises(ContractError):
        roc_analysis([PNRRecord("x", 1.0, "clean")])


def test_roc_matches_bruteforce_random_sets():
    rng = np.random.default_rng(5)
    # scores rounded to 0-1 decimals tie heavily
    for decimals in (2, 1, 0):
        for trial in range(30):
            n_c, n_a = rng.integers(2, 21, size=2)
            clean = np.round(rng.random(n_c) * 4, decimals)
            adv = np.round(rng.random(n_a) * 4 + rng.uniform(0, 1), decimals)
            rep = roc_analysis(records_from(clean, adv))
            assert rep.auroc == auroc_bruteforce(clean, adv)
            assert rep.aupr == pytest.approx(aupr_bruteforce(clean, adv), abs=1e-12)
            j_best, t_best = youden_bruteforce(clean, adv)
            assert rep.threshold == t_best
            assert rep.sensitivity + rep.specificity - 1.0 == pytest.approx(j_best, abs=1e-12)


def test_youden_threshold_exhaustively_optimal():
    rng = np.random.default_rng(6)
    clean = np.abs(rng.normal(1.0, 0.5, 40))
    adv = np.abs(rng.normal(1.6, 0.7, 35))
    rep = roc_analysis(records_from(clean, adv))
    scores = np.concatenate([clean, adv])
    j_star = rep.sensitivity + rep.specificity - 1.0
    for t in np.unique(scores):
        sens = (adv >= t).mean()
        spec = (clean < t).mean()
        assert j_star >= sens + spec - 1.0 - 1e-12
    assert scores.min() <= rep.threshold <= scores.max()


def test_delta_stats_from_paired_ids():
    recs = [PNRRecord("x", 1.0, "clean"), PNRRecord("y", 2.0, "clean"),
            PNRRecord("x", 1.5, "adversarial"), PNRRecord("y", 3.0, "adversarial")]
    rep = roc_analysis(recs)
    deltas = np.array([0.5, 1.0])
    assert rep.delta_pnr_mean == deltas.mean()
    assert rep.delta_pnr_std == deltas.std()


def test_delta_stats_nan_without_pairs():
    recs = [PNRRecord("a", 1.0, "clean"), PNRRecord("b", 2.0, "adversarial")]
    rep = roc_analysis(recs)
    assert np.isnan(rep.delta_pnr_mean)


def test_duplicate_record_rejected():
    recs = [PNRRecord("a", 1.0, "clean"), PNRRecord("a", 2.0, "clean"),
            PNRRecord("b", 2.0, "adversarial")]
    with pytest.raises(ContractError):
        roc_analysis(recs)


def test_record_validation():
    with pytest.raises(ParameterError):
        PNRRecord("x", 1.0, "weird")
    with pytest.raises(ParameterError):
        PNRRecord("x", -0.5, "clean")


def test_records_csv_round_trip(tmp_path):
    recs = records_from([0.125, 0.25], [0.75])
    path = tmp_path / "r.csv"
    write_records(str(path), recs)
    back = read_records(str(path))
    assert back == recs


def test_records_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,label,pnr\n\na,clean,0.5\n   \n\nb,adversarial,2\n\n")
    assert read_records(str(path)) == [PNRRecord("a", 0.5, "clean"),
                                       PNRRecord("b", 2.0, "adversarial")]


def test_records_csv_quotes_only_what_it_must(tmp_path):
    # ids without a carriage return are written as a csv writer with LF
    # line ends writes them; one with a carriage return is quoted too
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "a\rb", "\r", "x\r\ny"]
    recs = [PNRRecord(i, 0.5 + k / 8, "clean") for k, i in enumerate(ids)]
    plain = io.StringIO(newline="")
    csv.writer(plain, lineterminator="\n").writerows(
        [("id", "label", "pnr")] + [(r.sample_id, r.label, f"{r.pnr:.17g}") for r in recs[:4]])
    path = tmp_path / "r.csv"
    write_records(str(path), recs[:4])
    assert path.read_bytes().decode() == plain.getvalue()

    write_records(str(path), recs)
    assert read_records(str(path)) == recs
    assert path.read_bytes().decode().startswith(plain.getvalue() + '"a\rb",clean,')


def test_records_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope,nope,nope\n")
    with pytest.raises(DataFormatError):
        read_records(str(p))
    p.write_text("id,label,pnr\nx,clean\n")
    with pytest.raises(DataFormatError):
        read_records(str(p))
    p.write_text("id,label,pnr\nx,clean,notanumber\n")
    with pytest.raises(DataFormatError):
        read_records(str(p))


def test_report_metric_ranges_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rep = roc_analysis(records_from(np.abs(rng.normal(1, 1, 15)),
                                        np.abs(rng.normal(1.2, 1, 12))))
        assert 0.0 <= rep.auroc <= 1.0
        assert 0.0 <= rep.aupr <= 1.0
        assert 0.0 <= rep.sensitivity <= 1.0
        assert 0.0 <= rep.specificity <= 1.0


@pytest.mark.parametrize("pnr_value", [math.nan, math.inf, -math.inf])
def test_record_rejects_non_finite_pnr(pnr_value):
    with pytest.raises(ParameterError, match="finite"):
        PNRRecord("x", pnr_value, "clean")


@pytest.mark.parametrize("line", [b"x,clean,\xff", b"x,clean,nan", b"x,clean,inf"])
def test_records_csv_rejects_non_utf8_and_non_finite(tmp_path, line):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"id,label,pnr\n" + line + b"\n")
    with pytest.raises(DataFormatError):
        read_records(str(p))
