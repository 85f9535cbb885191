"""Word-level vocabulary and fixed-length token-id encoding.

Tokenization is deliberately simple and self-contained: lowercase, split on
whitespace, then peel leading/trailing ASCII punctuation off each unit into
separate single-character tokens ("Great, stuff!" -> great , stuff !).
"""

from __future__ import annotations

import hashlib
import json
import string
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

from .data import Dataset, read_lines
from .errors import FormatError, ValidationError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
_RESERVED = {PAD_ID: "<pad>", UNK_ID: "<unk>", CLS_ID: "<cls>"}

_PUNCT = set(string.punctuation)

DEFAULT_MAX_SIZE = 8000
DEFAULT_MIN_FREQ = 1


def _tokens(text: str) -> Iterator[str]:
    """The tokens of ``tokenize`` one at a time, so that a caller can stop early."""
    for unit in text.lower().split():
        if unit[0] not in _PUNCT and unit[-1] not in _PUNCT:
            yield unit
            continue
        rest = unit.lstrip(string.punctuation)
        core = rest.rstrip(string.punctuation)
        yield from unit[: len(unit) - len(rest)]
        if core:
            yield core
        yield from rest[len(core) :]


def tokenize(text: str) -> list[str]:
    return list(_tokens(text))


@dataclass(frozen=True)
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    max_size: int
    min_freq: int

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @cached_property
    def sha256(self) -> str:
        """sha256 of the serialized table, pinned by checkpoints; computed once, so the table must not change after use."""
        return hashlib.sha256(serialize_vocab(self).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence: [CLS] + tokens, PAD-filled to max_len."""

    ids: tuple[int, ...]
    true_length: int


def build_vocab(train: Dataset, max_size: int = DEFAULT_MAX_SIZE, min_freq: int = DEFAULT_MIN_FREQ) -> Vocab:
    """Frequency-ranked vocabulary over the training essays.

    Ties in frequency break lexicographically; the table is truncated to
    max_size entries including the 3 reserved ids.
    """
    if max_size < 3:
        raise ValidationError(f"max_size {max_size} cannot hold the 3 reserved ids")
    if not train.records:
        raise ValidationError("cannot build a vocabulary from an empty dataset")
    counts = Counter()
    for rec in train.records:
        counts.update(tokenize(rec.text))

    ranked = sorted(
        (tok for tok, freq in counts.items() if freq >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )[: max_size - 3]

    id_to_token = [_RESERVED[PAD_ID], _RESERVED[UNK_ID], _RESERVED[CLS_ID], *ranked]
    token_to_id = {tok: i + 3 for i, tok in enumerate(ranked)}
    return Vocab(token_to_id=token_to_id, id_to_token=id_to_token, max_size=max_size, min_freq=min_freq)


def encode(text: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """Encode text as [CLS] + token ids, truncated and PAD-filled to max_len."""
    if max_len < 2:
        raise ValidationError(f"max_len {max_len} leaves no room after the CLS position")
    # Tokens past max_len - 1 are never produced; the lookup is Vocab.lookup without a call per token.
    ids = [CLS_ID, *map(vocab.token_to_id.get, islice(_tokens(text), max_len - 1), repeat(UNK_ID))]
    true_length = len(ids)
    ids.extend([PAD_ID] * (max_len - true_length))
    return TokenSequence(ids=tuple(ids), true_length=true_length)


def serialize_vocab(vocab: Vocab) -> str:
    header = json.dumps(
        {
            "max_size": vocab.max_size,
            "min_freq": vocab.min_freq,
            "reserved": {"pad": PAD_ID, "unk": UNK_ID, "cls": CLS_ID},
        },
        sort_keys=True,
    )
    lines = [header]
    lines.extend(f"{tok}\t{i}" for i, tok in enumerate(vocab.id_to_token[3:], start=3))
    return "\n".join(lines) + "\n"


def save_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_vocab(vocab))


def load_vocab(path) -> Vocab:
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty vocabulary file")
    try:
        header = json.loads(lines[0])
        max_size = int(header["max_size"])
        min_freq = int(header["min_freq"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad vocabulary header: {exc}") from None

    id_to_token = [_RESERVED[PAD_ID], _RESERVED[UNK_ID], _RESERVED[CLS_ID]]
    token_to_id: dict[str, int] = {}
    for offset, line in enumerate(lines[1:]):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}: malformed vocabulary line {offset + 2}")
        token, id_str = parts
        expected = offset + 3
        try:
            token_id = int(id_str)
        except ValueError:
            raise FormatError(f"{path}: line {offset + 2}: vocabulary id {id_str!r} is not an integer") from None
        if token_id != expected:
            raise FormatError(f"{path}: non-contiguous id {id_str} for token {token!r} (expected {expected})")
        id_to_token.append(token)
        token_to_id[token] = expected
    return Vocab(token_to_id=token_to_id, id_to_token=id_to_token, max_size=max_size, min_freq=min_freq)
