"""Seeded input generator: writes each workload's TSV files.

The program under test only ever sees these files. Essays are made of
synthetic six-letter words (consonant-vowel triples, so they can never collide
with a planted keyword) plus one planted keyword per essay that fully
determines its label, as in the test-suite corpora. Word counts follow a fixed
distribution per workload, sampled by stratified quantiles so every seed gets
the same length profile and only the words and their order change.

The same (workload, seed) always produces byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

EMOTIONS = ("anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise")

EMOTION_KEYWORDS = {
    "anger": "furious",
    "disgust": "revolting",
    "fear": "terrified",
    "joy": "delighted",
    "neutral": "ordinary",
    "sadness": "heartbroken",
    "surprise": "astonishing",
}

# marker word -> planted empathy score; distress is 8 - empathy
SCORE_KEYWORDS = {"dismal": 1.5, "cold": 2.5, "plain": 3.5, "warm": 4.5, "caring": 5.5, "devoted": 6.5}

LEXICON_SIZE = 20000

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def build_lexicon() -> np.ndarray:
    """The fixed 20k-word lexicon, independent of the workload seed.

    Built once as a numpy array so sampling is integer indexing; drawing from
    a Python list of strings with ``rng.choice`` is far slower.
    """
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    n = len(syllables)
    picks = np.random.default_rng(20210420).choice(n**3, size=LEXICON_SIZE, replace=False)
    return np.array([syllables[i // (n * n)] + syllables[(i // n) % n] + syllables[i % n] for i in picks])


def stratified_counts(rng: np.random.Generator, n: int, lo: int, hi: int, log: bool = False) -> np.ndarray:
    """n word counts in [lo, hi], one per quantile stratum, in shuffled order.

    Stratifying keeps the length profile (and so the work per batch) the same
    for every seed. ``log`` spaces the strata log-uniformly.
    """
    q = (np.arange(n) + rng.random(n)) / n
    if log:
        counts = np.exp(np.log(lo) + q * (np.log(hi + 1) - np.log(lo)))
    else:
        counts = lo + q * (hi + 1 - lo)
    return rng.permutation(np.minimum(np.floor(counts).astype(np.int64), hi))


def _essay(rng: np.random.Generator, fillers: np.ndarray, keyword: str) -> str:
    words = fillers.tolist()
    words.insert(int(rng.integers(0, len(words) + 1)), keyword)
    return " ".join(words)


def _essays(rng, counts, words: np.ndarray, keywords: list[str], distinct: bool = False) -> list[str]:
    """One essay per count (count includes the keyword).

    ``distinct`` draws fillers without replacement across all essays, so every
    filler word in the set is new: the vocabulary grows with the token count.
    """
    n_fill = counts - 1
    if distinct:
        flat = words[rng.permutation(len(words))[: int(n_fill.sum())]]
    else:
        flat = words[rng.integers(0, len(words), size=int(n_fill.sum()))]
    bounds = np.concatenate([[0], np.cumsum(n_fill)])
    return [_essay(rng, flat[bounds[i] : bounds[i + 1]], kw) for i, kw in enumerate(keywords)]


def _write(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _emotion_rows(rng, prefix, labels, counts, words):
    essays = _essays(rng, counts, words, [EMOTION_KEYWORDS[e] for e in labels])
    return [[f"{prefix}-{i}", t, e] for i, (t, e) in enumerate(zip(essays, labels))]


def _per_class(counts_by_class: dict[str, int]) -> list[str]:
    return [e for e in EMOTIONS for _ in range(counts_by_class[e])]


def _cycled(n: int) -> list[str]:
    return [EMOTIONS[i % 7] for i in range(n)]


# train_long: skewed base rebuilt to 12 per class by the ba scheme
LONG_BASE = {"anger": 24, "disgust": 3, "fear": 6, "joy": 18, "neutral": 9, "sadness": 4, "surprise": 2}
LONG_POOL_PER_CLASS = 12
LONG_TOTAL = 84
LONG_WORDS = (63, 90)
LONG_LEXICON = 600
LONG_DEV = 28
LONG_TEST = 64

SHORT_TRAIN = 500
SHORT_WORDS = (10, 14)
SHORT_DEV = 64
SHORT_TEST = 128

SCORE_MEMBER_TRAIN = 56
SCORE_MEMBER_WORDS = (20, 40)
SCORE_LEXICON = 2000
SCORE_WORDS = (5, 120)
SCORE_DEV = 7
SCORE_TEST = 192


def _gen_train_long(rng, lexicon, out) -> dict[str, str]:
    words = lexicon[:LONG_LEXICON]
    paths = {}
    base = _per_class(LONG_BASE)
    pool = _per_class({e: LONG_POOL_PER_CLASS for e in EMOTIONS})
    for name, labels in (("base", base), ("pool", pool), ("dev", _cycled(LONG_DEV)), ("test", _cycled(LONG_TEST))):
        rows = _emotion_rows(rng, name, labels, stratified_counts(rng, len(labels), *LONG_WORDS), words)
        header = ["id", "text", "emotion"] if name == "pool" else ["id", "essay", "emotion"]
        paths[name] = os.path.join(out, f"{name}.tsv")
        _write(paths[name], header, rows)
    return paths


def _score_rows(rng, prefix, n, counts, words, distinct=False):
    markers = list(SCORE_KEYWORDS.items())
    picked = [markers[i % len(markers)] for i in range(n)]
    essays = _essays(rng, counts, words, [w for w, _ in picked], distinct=distinct)
    return [[f"{prefix}-{i}", t, repr(s), repr(8.0 - s)] for i, (t, (_, s)) in enumerate(zip(essays, picked))]


def _gen_train_short(rng, lexicon, out) -> dict[str, str]:
    paths = {}
    header = ["id", "essay", "empathy", "distress"]
    for name, n, distinct in (("train", SHORT_TRAIN, True), ("dev", SHORT_DEV, False), ("test", SHORT_TEST, False)):
        rows = _score_rows(rng, name, n, stratified_counts(rng, n, *SHORT_WORDS), lexicon, distinct=distinct)
        paths[name] = os.path.join(out, f"{name}.tsv")
        _write(paths[name], header, rows)
    return paths


def _gen_score(rng, lexicon, out) -> dict[str, str]:
    words = lexicon[:SCORE_LEXICON]
    paths = {}
    header = ["id", "essay", "emotion"]
    train_counts = stratified_counts(rng, SCORE_MEMBER_TRAIN, *SCORE_MEMBER_WORDS)
    dev_counts = stratified_counts(rng, SCORE_DEV, *SCORE_WORDS, log=True)
    # the test file is ordered short to long, so successive eval chunks trim to
    # different sequence lengths
    test_counts = np.sort(stratified_counts(rng, SCORE_TEST, *SCORE_WORDS, log=True))
    for name, counts in (("train", train_counts), ("dev", dev_counts), ("test", test_counts)):
        rows = _emotion_rows(rng, name, _cycled(len(counts)), counts, words)
        paths[name] = os.path.join(out, f"{name}.tsv")
        _write(paths[name], header, rows)
    return paths


GENERATORS = {
    "train_long": _gen_train_long,
    "train_short_widevocab": _gen_train_short,
    "score_ensemble": _gen_score,
}


def generate(workload: str, seed: int, out_dir: str, lexicon: np.ndarray | None = None) -> dict[str, str]:
    """Write the workload's TSV files into out_dir; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    stream = list(GENERATORS).index(workload)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
    return GENERATORS[workload](rng, build_lexicon() if lexicon is None else lexicon, out_dir)
