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

from .data import EMOTIONS, Dataset, EssayRecord, gold_values
from .errors import ValidationError
from .train import MAX_BYTES

# Most records a balanced set may hold. Each record drawn from the pool costs
# about 260 bytes (record, id and extras, as tracemalloc measured over 7000
# draws), so a larger total would pass the memory bound of a training run
# before it was ever trained on.
MAX_TOTAL = MAX_BYTES // 256


@dataclass(frozen=True)
class AugmentationSpec:
    scheme: str  # "ba" or "ra"
    total_target: int | None = None  # ba: size of the balanced output
    sample_count: int | None = None  # ra: number of pool records to append
    seed: int = 0


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"augmentation seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _by_class(d: Dataset, role: str) -> dict[str, list[int]]:
    """Record indices per emotion label, in record order; raises if a record has no label."""
    ids = gold_values(d.records, ("emotion",), role)["emotion"]
    return {name: np.flatnonzero(ids == c).tolist() for c, name in enumerate(EMOTIONS)}


def _with_pool_records(records: list[EssayRecord], pool: Dataset, picks) -> list[EssayRecord]:
    """records, then the pool records at ``picks``, each under the first free id of ``pool:<id>``, ``pool:<id>:2``, ...

    The taken ids only grow, so each id's scan resumes where its last one stopped.
    """
    seen = {r.id for r in records}
    next_suffix: dict[str, int] = {}
    for i in picks:
        rec = pool.records[i]
        n = next_suffix.get(rec.id, 1)
        new_id = f"pool:{rec.id}" if n == 1 else f"pool:{rec.id}:{n}"
        while new_id in seen:
            n += 1
            new_id = f"pool:{rec.id}:{n}"
        next_suffix[rec.id] = n + 1
        seen.add(new_id)
        records.append(EssayRecord(new_id, rec.text, None, None, rec.emotion, dict(rec.extras)))
    return records


def balanced_augment(base: Dataset, pool: Dataset, spec: AugmentationSpec) -> Dataset:
    """Build an exactly class-balanced dataset of ``spec.total_target`` records.

    Per class with target T = total_target/7: a class with >= T base records
    is downsampled to T (uniform, without replacement); a class with fewer
    keeps all its base records and draws the difference from the pool,
    without replacement while the pool lasts and with replacement once it is
    exhausted (the output's ``with_replacement_used`` meta flag records which).
    Selected base records come first, in their original order, followed by
    pool picks in selection order. A total over ``MAX_TOTAL`` is refused before
    any draw.
    """
    if spec.scheme != "ba":
        raise ValidationError(f"balanced_augment requires scheme 'ba', got {spec.scheme!r}")
    if spec.total_target is None or spec.total_target <= 0:
        raise ValidationError("balanced augmentation requires a positive total_target")
    if spec.total_target % 7 != 0:
        raise ValidationError(f"total_target {spec.total_target} is not divisible by 7")
    if spec.total_target > MAX_TOTAL:
        raise ValidationError(
            f"total_target {spec.total_target} is over {MAX_TOTAL}, the most records a balanced set may hold"
            f" within the {MAX_BYTES >> 20} MiB memory bound"
        )
    base_groups = _by_class(base, "base")
    pool_groups = _by_class(pool, "pool")

    target = spec.total_target // 7
    rng = _rng(spec.seed)

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

    return Dataset(
        split="derived",
        records=_with_pool_records([base.records[i] for i in sorted(kept_base)], pool, picked_pool),
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
    if count > len(pool.records):
        raise ValidationError(f"sample_count {count} exceeds pool size {len(pool.records)}")
    picks = _rng(spec.seed).permutation(len(pool.records))[:count]

    return Dataset(
        split="derived",
        records=_with_pool_records(list(base.records), pool, picks),
        meta={
            "scheme": "ra",
            "seed": str(spec.seed),
            "with_replacement_used": "false",
        },
    )
