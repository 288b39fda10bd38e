import pytest

from qwalk.errors import LabelMismatch, NotNormalized
from qwalk.experiments import Distribution
from qwalk.metrics import bhattacharyya


def dist(probs, labels=None, **kw):
    labels = tuple(range(1, len(probs) + 1)) if labels is None else labels
    defaults = dict(
        kind="one-fold",
        labels=labels,
        probs=tuple(probs),
        raw=tuple(probs),
    )
    defaults.update(kw)
    return Distribution(**defaults)


def test_identical_distributions_have_unit_similarity():
    p = dist((0.2, 0.3, 0.5))
    assert bhattacharyya(p, p).value == pytest.approx(1.0, abs=1e-12)


def test_disjoint_distributions_have_zero_similarity():
    p = dist((1.0, 0.0))
    q = dist((0.0, 1.0))
    assert bhattacharyya(p, q).value == 0.0


def test_point_mass_against_uniform():
    # sum(sqrt(p q)) = sqrt(1/2)
    p = dist((1.0, 0.0))
    q = dist((0.5, 0.5))
    report = bhattacharyya(p, q)
    assert report.value == pytest.approx(0.7071067811865476, abs=1e-15)
    assert report.convention == "Bhattacharyya"


def test_squared_convention():
    p = dist((1.0, 0.0))
    q = dist((0.5, 0.5))
    report = bhattacharyya(p, q, squared=True)
    assert report.value == pytest.approx(0.5, abs=1e-14)
    assert report.convention == "BhattacharyyaSquared"


def test_label_sets_must_match():
    p = dist((0.5, 0.5))
    q = dist((0.5, 0.5), labels=(3, 4))
    with pytest.raises(LabelMismatch):
        bhattacharyya(p, q)
    with pytest.raises(LabelMismatch):
        bhattacharyya(p, dist((1.0,)))


def test_unnormalized_inputs_are_rejected():
    good = dist((0.5, 0.5))
    with pytest.raises(NotNormalized):
        bhattacharyya(dist((0.5, 0.6)), good)
    with pytest.raises(NotNormalized):
        bhattacharyya(dist((0.5, 0.5), undefined=True), good)
    with pytest.raises(NotNormalized):
        bhattacharyya(dist((0.5, 0.5), normalization="RawPattern"), good)


def test_non_finite_inputs_are_rejected():
    # NaN slips past a tolerance test on the sum, and min(1.0, nan) is 1.0
    good = dist((0.5, 0.5))
    for bad in ((float("nan"), 0.5), (float("nan"), float("nan")), (float("inf"), 0.0)):
        with pytest.raises(NotNormalized, match="non-finite"):
            bhattacharyya(dist(bad), good)
        with pytest.raises(NotNormalized, match="non-finite"):
            bhattacharyya(good, dist(bad))
