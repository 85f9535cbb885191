"""Word-level vocabulary and token-id encoding.

Tokenization is deliberately simple and self-contained: lowercase, split on
whitespace, then peel leading/trailing ASCII punctuation off each unit into
separate single-character tokens ("Great, stuff!" -> great , stuff !).
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path

from .data import Dataset, format_table, read_table
from .errors import FormatError, ValidationError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
_RESERVED = ("<pad>", "<unk>", "<cls>")  # the names of ids 0, 1 and 2

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
    """Every id's token in id order: the three reserved names, then the learned tokens."""

    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @cached_property
    def token_to_id(self) -> dict[str, int]:
        """Each learned token's id, 3 onwards; the reserved ids are not looked up by name."""
        return dict(zip(self.id_to_token[3:], range(3, len(self))))

    @cached_property
    def sha256(self) -> str:
        """sha256 of the serialized table, pinned by checkpoints; computed once, so the table must not change after use."""
        return hashlib.sha256(serialize_vocab(self).encode("utf-8")).hexdigest()


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

    return Vocab([*_RESERVED, *ranked])


def encode(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """[CLS] + the text's token ids, truncated to max_len ids in all; its length is the true length."""
    if max_len < 2:
        raise ValidationError(f"max_len {max_len} leaves no room after the CLS position")
    # Tokens past max_len - 1 are never produced; the lookup is Vocab.lookup without a call per token.
    return [CLS_ID, *map(vocab.token_to_id.get, islice(_tokens(text), max_len - 1), repeat(UNK_ID))]


def serialize_vocab(vocab: Vocab) -> str:
    """The vocabulary table: header ``token``, then one learned token per line, so line n holds id n + 1.

    Tokens are written raw: ``tokenize`` splits on every whitespace
    character, so a token never holds a tab, a carriage return or a newline.
    """
    return format_table(["token"], [[tok] for tok in vocab.id_to_token[3:]], key="token")


def save_vocab(vocab: Vocab, path) -> None:
    Path(path).write_text(serialize_vocab(vocab), encoding="utf-8", newline="")


def load_vocab(path) -> Vocab:
    """A table written by ``save_vocab``; RowError naming the file and line of an empty or repeated token."""
    header, rows = read_table(path, key="token")
    if header != ["token"]:
        raise FormatError(f"{path}: vocabulary header must be 'token', got {header}")
    return Vocab([*_RESERVED, *[cells[0] for cells in rows]])
