import pytest

import miniaffect.augment as augment_module
from miniaffect.augment import MAX_TOTAL, AugmentationSpec, balanced_augment, random_augment
from miniaffect.train import MAX_BYTES
from miniaffect.data import EMOTIONS, Dataset, EssayRecord, class_histogram, serialize_dataset
from miniaffect.errors import ValidationError


def make_dataset(split, label_counts, prefix):
    records = []
    i = 0
    for emotion in EMOTIONS:
        for _ in range(label_counts.get(emotion, 0)):
            records.append(EssayRecord(f"{prefix}{i}", f"{prefix} text {i}", None, None, emotion))
            i += 1
    return Dataset(split, records)


def uniform(count):
    return {e: count for e in EMOTIONS}


def test_ba_total_2800_gives_400_per_class():
    base = make_dataset("train", {"sadness": 650, "anger": 380, "fear": 230, "neutral": 220,
                                  "disgust": 150, "surprise": 130, "joy": 100}, "b")
    pool = make_dataset("pool", uniform(350), "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=2800, seed=1))
    hist = class_histogram(out)
    assert len(out) == 2800
    assert all(hist[e] == 400 for e in EMOTIONS)
    assert out.meta["with_replacement_used"] == "false"


def test_ba_balanced_base_is_identity():
    base = make_dataset("train", uniform(2), "b")
    pool = make_dataset("pool", uniform(3), "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=14, seed=9))
    assert out.records == base.records


def test_ba_tops_up_single_deficit_class():
    counts = uniform(2)
    counts["joy"] = 1
    base = make_dataset("train", counts, "b")
    pool = make_dataset("pool", {"joy": 3}, "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=14, seed=4))
    hist = class_histogram(out)
    assert all(hist[e] == 2 for e in EMOTIONS)
    pool_texts = {r.text for r in pool.records}
    added = [r for r in out.records if r.text in pool_texts]
    assert len(added) == 1 and added[0].emotion == "joy"
    # brute-force recount of where each output record came from
    base_texts = {r.text for r in base.records}
    assert sum(1 for r in out.records if r.text in base_texts) == 13


def test_ba_downsamples_overrepresented_class():
    counts = uniform(2)
    counts["sadness"] = 6
    base = make_dataset("train", counts, "b")
    pool = make_dataset("pool", uniform(2), "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=14, seed=0))
    hist = class_histogram(out)
    assert hist["sadness"] == 2
    base_ids = {r.id for r in base.records}
    assert all(r.id in base_ids for r in out.records)  # no pool draw was needed


def test_ba_base_order_preserved_then_pool_selections():
    counts = uniform(2)
    counts["joy"] = 0
    base = make_dataset("train", counts, "b")
    pool = make_dataset("pool", uniform(4), "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=14, seed=2))
    base_ids = [r.id for r in base.records]
    out_base = [r.id for r in out.records if r.id in set(base_ids)]
    assert out_base == base_ids  # original order, nothing dropped
    assert all(r.id.startswith("pool:") for r in out.records[len(out_base):])


def test_ba_missing_pool_class_errors():
    counts = uniform(2)
    counts["fear"] = 1
    base = make_dataset("train", counts, "b")
    pool = make_dataset("pool", {"joy": 5}, "p")
    with pytest.raises(ValidationError, match="fear"):
        balanced_augment(base, pool, AugmentationSpec("ba", total_target=14, seed=0))


def test_ba_indivisible_total_errors():
    base = make_dataset("train", uniform(2), "b")
    pool = make_dataset("pool", uniform(2), "p")
    with pytest.raises(ValidationError, match="divisible"):
        balanced_augment(base, pool, AugmentationSpec("ba", total_target=100, seed=0))


def test_ba_exhaustion_falls_back_with_replacement():
    counts = uniform(4)
    counts["joy"] = 1
    base = make_dataset("train", counts, "b")
    pool = make_dataset("pool", {"joy": 2}, "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=28, seed=3))
    hist = class_histogram(out)
    assert hist["joy"] == 4
    assert out.meta["with_replacement_used"] == "true"
    # duplicates got fresh unique ids but identical text
    joy_pool = [r for r in out.records if r.emotion == "joy" and r.id.startswith("pool:")]
    assert len(joy_pool) == 3
    assert len({r.id for r in joy_pool}) == 3
    assert len({r.text for r in joy_pool}) <= 2


def scanned_pool_ids(taken, source_ids):
    """Fresh pool ids as a scan from ``pool:<id>`` up through ``pool:<id>:2``, ... gives them."""
    seen, out = set(taken), []
    for orig in source_ids:
        candidate, n = f"pool:{orig}", 2
        while candidate in seen:
            candidate, n = f"pool:{orig}:{n}", n + 1
        seen.add(candidate)
        out.append(candidate)
    return out


def test_ba_pool_ids_match_a_scan_from_the_first_suffix():
    # 299 copies of each pool record. A base id and a pool record's own fresh id
    # take names in p0's sequence, which its copies must skip.
    base = make_dataset("train", uniform(1), "b")
    base.records.append(EssayRecord("pool:p0:2", "base text named like a copy", None, None, EMOTIONS[0]))
    pool = make_dataset("pool", uniform(1), "p")
    pool.records.append(EssayRecord("p0:3", "pool text named like a copy", None, None, EMOTIONS[0]))
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=7 * 300, seed=5))
    assert out.meta["with_replacement_used"] == "true"
    source = {r.text: r.id for r in pool.records}
    n_base = len(base.records)
    assert [r.id for r in out.records[:n_base]] == [r.id for r in base.records]
    expected = scanned_pool_ids([r.id for r in base.records], [source[r.text] for r in out.records[n_base:]])
    assert [r.id for r in out.records[n_base:]] == expected
    assert {"pool:p0", "pool:p0:3", "pool:p0:3:2"} <= set(expected) and "pool:p0:2" not in expected


@pytest.mark.parametrize("total",[7 * 10**20, 7 * 10**10, MAX_TOTAL - MAX_TOTAL % 7 + 7], ids=["7e20", "7e10", "first_over"])
def test_ba_refuses_a_total_over_the_bound_before_any_draw(monkeypatch, total):
    # The bound is what the records alone would cost against the run's memory bound.
    assert 256 * MAX_TOTAL == MAX_BYTES
    monkeypatch.setattr(augment_module, "_rng", lambda seed: pytest.fail("drew before checking the total"))
    base = make_dataset("train", uniform(1), "b")
    pool = make_dataset("pool", uniform(1), "p")
    with pytest.raises(ValidationError, match=f"total_target {total} is over {MAX_TOTAL}"):
        balanced_augment(base, pool, AugmentationSpec("ba", total_target=total, seed=0))


def test_ba_requires_labels():
    base = Dataset("train", [EssayRecord("u", "unlabeled", None, None, None)])
    pool = make_dataset("pool", uniform(1), "p")
    with pytest.raises(ValidationError, match="u"):
        balanced_augment(base, pool, AugmentationSpec("ba", total_target=7, seed=0))


def test_ba_deterministic():
    base = make_dataset("train", {"sadness": 10, "anger": 6, "fear": 4, "neutral": 4,
                                  "disgust": 3, "surprise": 2, "joy": 1}, "b")
    pool = make_dataset("pool", uniform(10), "p")
    spec = AugmentationSpec("ba", total_target=35, seed=77)
    first = balanced_augment(base, pool, spec)
    second = balanced_augment(base, pool, spec)
    assert serialize_dataset(first) == serialize_dataset(second)
    different = balanced_augment(base, pool, AugmentationSpec("ba", total_target=35, seed=78))
    assert serialize_dataset(different) != serialize_dataset(first)


def test_ba_no_text_fabrication():
    base = make_dataset("train", {"sadness": 8, "anger": 2, "fear": 2, "neutral": 2,
                                  "disgust": 2, "surprise": 2, "joy": 2}, "b")
    pool = make_dataset("pool", uniform(6), "p")
    out = balanced_augment(base, pool, AugmentationSpec("ba", total_target=28, seed=5))
    source_texts = {r.text for r in base.records} | {r.text for r in pool.records}
    assert all(r.text in source_texts for r in out.records)


def test_ra_count_zero_is_identity():
    base = make_dataset("train", uniform(2), "b")
    pool = make_dataset("pool", uniform(2), "p")
    out = random_augment(base, pool, AugmentationSpec("ra", sample_count=0, seed=0))
    assert out.records == base.records


def test_ra_exhaustive_draw_uses_every_pool_record():
    base = make_dataset("train", uniform(1), "b")
    pool = make_dataset("pool", uniform(2), "p")
    out = random_augment(base, pool, AugmentationSpec("ra", sample_count=14, seed=0))
    added_texts = sorted(r.text for r in out.records[len(base):])
    assert added_texts == sorted(r.text for r in pool.records)


def test_ra_thousand_sample_draw():
    base = make_dataset("train", {"sadness": 1860}, "b")
    pool = make_dataset("pool", uniform(200), "p")
    out = random_augment(base, pool, AugmentationSpec("ra", sample_count=1000, seed=0))
    assert len(out) == 2860
    assert [r.id for r in out.records[:1860]] == [r.id for r in base.records]


def test_ra_no_duplicates():
    base = make_dataset("train", uniform(1), "b")
    pool = make_dataset("pool", uniform(30), "p")
    out = random_augment(base, pool, AugmentationSpec("ra", sample_count=100, seed=12))
    added = [r.text for r in out.records[len(base):]]
    assert len(set(added)) == len(added)


def test_ra_count_exceeding_pool_errors():
    base = make_dataset("train", uniform(1), "b")
    pool = make_dataset("pool", uniform(1), "p")
    with pytest.raises(ValidationError, match="exceeds pool size"):
        random_augment(base, pool, AugmentationSpec("ra", sample_count=8, seed=0))


def test_ra_deterministic():
    base = make_dataset("train", uniform(2), "b")
    pool = make_dataset("pool", uniform(8), "p")
    spec = AugmentationSpec("ra", sample_count=20, seed=5)
    assert serialize_dataset(random_augment(base, pool, spec)) == serialize_dataset(
        random_augment(base, pool, spec)
    )


def test_scheme_mismatch_rejected():
    base = make_dataset("train", uniform(1), "b")
    pool = make_dataset("pool", uniform(1), "p")
    with pytest.raises(ValidationError):
        balanced_augment(base, pool, AugmentationSpec("ra", sample_count=1))
    with pytest.raises(ValidationError):
        random_augment(base, pool, AugmentationSpec("ba", total_target=7))
