"""Training-set augmentation from an external labeled pool.

Two schemes:

* ``ba`` (balanced)  -- rebuild the training set to an exactly class-balanced
  total: over-represented classes are downsampled, under-represented ones are
  topped up from the pool.
* ``ra`` (random)    -- append a fixed number of uniformly drawn pool records.

All sampling is driven by numpy's PCG64 generator seeded from the
AugmentationSpec, so a given (base, pool, spec) triple always yields the same
output, record order included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EMOTIONS, Dataset, EssayRecord, require_labels
from .errors import ValidationError


@dataclass(frozen=True)
class AugmentationSpec:
    scheme: str  # "ba" or "ra"
    total_target: int | None = None  # ba: size of the balanced output
    sample_count: int | None = None  # ra: number of pool records to append
    seed: int = 0
    with_replacement: bool = False  # ra only; ba falls back on its own


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _by_class(d: Dataset) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {name: [] for name in EMOTIONS}
    for idx, r in enumerate(d.records):
        groups[r.emotion].append(idx)
    return groups


def _fresh_pool_id(orig_id: str, seen: set[str]) -> str:
    candidate = f"pool:{orig_id}"
    n = 2
    while candidate in seen:
        candidate = f"pool:{orig_id}:{n}"
        n += 1
    return candidate


def _pool_record(rec: EssayRecord, seen: set[str]) -> EssayRecord:
    new_id = _fresh_pool_id(rec.id, seen)
    seen.add(new_id)
    return EssayRecord(new_id, rec.text, None, None, rec.emotion, dict(rec.extras))


def balanced_augment(base: Dataset, pool: Dataset, spec: AugmentationSpec) -> Dataset:
    """Build an exactly class-balanced dataset of ``spec.total_target`` records.

    Per class with target T = total_target/7: a class with >= T base records
    is downsampled to T (uniform, without replacement); a class with fewer
    keeps all its base records and draws the difference from the pool,
    without replacement while the pool lasts and with replacement once it is
    exhausted (the output's ``with_replacement_used`` meta flag records which).
    Selected base records come first, in their original order, followed by
    pool picks in selection order.
    """
    if spec.scheme != "ba":
        raise ValidationError(f"balanced_augment requires scheme 'ba', got {spec.scheme!r}")
    if spec.total_target is None or spec.total_target <= 0:
        raise ValidationError("balanced augmentation requires a positive total_target")
    if spec.total_target % 7 != 0:
        raise ValidationError(f"total_target {spec.total_target} is not divisible by 7")
    require_labels(base, ("emotion",), "base")
    require_labels(pool, ("emotion",), "pool")

    target = spec.total_target // 7
    rng = _rng(spec.seed)
    base_groups = _by_class(base)
    pool_groups = _by_class(pool)

    kept_base: list[int] = []
    picked_pool: list[int] = []  # pool indices in selection order
    replacement_used = False

    for label in EMOTIONS:
        base_idx = base_groups[label]
        if len(base_idx) >= target:
            chosen = rng.permutation(len(base_idx))[:target]
            kept_base.extend(base_idx[i] for i in chosen)
            continue
        kept_base.extend(base_idx)
        need = target - len(base_idx)
        pool_idx = pool_groups[label]
        if not pool_idx:
            raise ValidationError(f"pool has no {label!r} records but {need} are needed")
        order = rng.permutation(len(pool_idx))
        if need <= len(pool_idx):
            picked_pool.extend(pool_idx[i] for i in order[:need])
        else:
            replacement_used = True
            picked_pool.extend(pool_idx[i] for i in order)
            extra = rng.integers(0, len(pool_idx), size=need - len(pool_idx))
            picked_pool.extend(pool_idx[i] for i in extra)

    records = [base.records[i] for i in sorted(kept_base)]
    seen = {r.id for r in records}
    records.extend(_pool_record(pool.records[i], seen) for i in picked_pool)

    return Dataset(
        split="derived",
        records=records,
        meta={
            "scheme": "ba",
            "seed": str(spec.seed),
            "with_replacement_used": "true" if replacement_used else "false",
        },
    )


def random_augment(base: Dataset, pool: Dataset, spec: AugmentationSpec) -> Dataset:
    """Append ``spec.sample_count`` uniformly drawn pool records to the base set."""
    if spec.scheme != "ra":
        raise ValidationError(f"random_augment requires scheme 'ra', got {spec.scheme!r}")
    if spec.sample_count is None or spec.sample_count < 0:
        raise ValidationError("random augmentation requires a non-negative sample_count")
    count = spec.sample_count
    if count > len(pool.records) and not spec.with_replacement:
        raise ValidationError(
            f"sample_count {count} exceeds pool size {len(pool.records)} (with_replacement is off)"
        )

    rng = _rng(spec.seed)
    replacement_used = spec.with_replacement and count > len(pool.records)
    if replacement_used:
        picks = rng.integers(0, len(pool.records), size=count)
    else:
        picks = rng.permutation(len(pool.records))[:count]

    records = list(base.records)
    seen = {r.id for r in records}
    records.extend(_pool_record(pool.records[i], seen) for i in picks)

    return Dataset(
        split="derived",
        records=records,
        meta={
            "scheme": "ra",
            "seed": str(spec.seed),
            "with_replacement_used": "true" if replacement_used else "false",
        },
    )
