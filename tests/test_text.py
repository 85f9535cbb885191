import hashlib
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miniaffect.text as text_module
from miniaffect.data import Dataset, EssayRecord
from miniaffect.errors import FormatError, RowError, ValidationError
from miniaffect.train import encode_dataset
from miniaffect.text import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    Vocab,
    build_vocab,
    encode,
    load_vocab,
    save_vocab,
    serialize_vocab,
    tokenize,
)

from oracles import peel_tokenize


def corpus(*texts):
    return Dataset("train", [EssayRecord(str(i), t) for i, t in enumerate(texts)])


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Great, stuff!") == ["great", ",", "stuff", "!"]
    assert tokenize('"Hello world..."') == ['"', "hello", "world", ".", ".", ".", '"']
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("") == []
    assert tokenize("--") == ["-", "-"]


def test_build_vocab_frequency_then_lexicographic():
    vocab = build_vocab(corpus("a b a"))
    assert len(vocab) == 5  # pad, unk, cls, a, b
    assert vocab.lookup("a") == 3
    assert vocab.lookup("b") == 4


def test_build_vocab_min_freq():
    vocab = build_vocab(corpus("a b a"), min_freq=2)
    assert vocab.lookup("a") == 3
    assert vocab.lookup("b") == UNK_ID


def test_build_vocab_tie_break_lexicographic():
    vocab = build_vocab(corpus("zebra apple zebra apple"))
    assert vocab.lookup("apple") == 3
    assert vocab.lookup("zebra") == 4


def test_build_vocab_max_size_truncates():
    vocab = build_vocab(corpus("a a a b b c"), max_size=5)
    assert len(vocab) == 5
    assert vocab.lookup("a") == 3 and vocab.lookup("b") == 4
    assert vocab.lookup("c") == UNK_ID


@settings(max_examples=200)
@given(
    texts=st.lists(st.lists(st.sampled_from(["a", "b", "c", "ab", "ba", "Zed", "z", "é", "10", "9"]), max_size=12),
                   min_size=1, max_size=6),
    min_freq=st.integers(1, 4),
    max_size=st.integers(3, 14),
)
def test_build_vocab_matches_ranking_by_count_then_token(texts, min_freq, max_size):
    # The order by (-count, token) that build_vocab's two stable sorts replace:
    # ties, min_freq and max_size truncation all give the same table.
    records = corpus(*(" ".join(words) for words in texts))
    counts = {}
    for rec in records.records:
        for tok in tokenize(rec.text):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted((tok for tok, n in counts.items() if n >= min_freq), key=lambda tok: (-counts[tok], tok))
    vocab = build_vocab(records, max_size=max_size, min_freq=min_freq)
    assert vocab.id_to_token == ["<pad>", "<unk>", "<cls>", *kept[: max_size - 3]]


def test_build_vocab_rejects_tiny_max_size():
    with pytest.raises(ValidationError):
        build_vocab(corpus("a"), max_size=2)


def test_build_vocab_rejects_empty_dataset():
    with pytest.raises(ValidationError):
        build_vocab(Dataset("train", []))


def test_build_vocab_deterministic():
    text = "the quick brown fox jumps over the lazy dog the end"
    a = build_vocab(corpus(text))
    b = build_vocab(corpus(text))
    assert a.token_to_id == b.token_to_id
    assert a.id_to_token == b.id_to_token


def test_encode_empty_text():
    vocab = build_vocab(corpus("a b"))
    assert encode("", vocab, max_len=8) == [CLS_ID]
    ids, lengths = encode_dataset(corpus(""), vocab, max_len=8)
    assert ids.tolist() == [[CLS_ID] + [PAD_ID] * 7]
    assert lengths.tolist() == [1]


def test_encode_oov_maps_to_unk():
    vocab = build_vocab(corpus("a b"))
    seq = encode("a zzz b", vocab, max_len=8)
    assert seq[1] == vocab.lookup("a")
    assert seq[2] == UNK_ID
    assert seq[3] == vocab.lookup("b")


def test_encode_truncation():
    words = " ".join(f"w{i}" for i in range(100))
    vocab = build_vocab(corpus(words))
    seq = encode(words, vocab, max_len=16)
    assert len(seq) == 16
    # count-based check: 15 token slots after CLS, so 85 of 100 drop
    assert sum(1 for i in seq if i != PAD_ID and i != CLS_ID) == 15


def test_encode_starts_with_cls_and_pads():
    vocab = build_vocab(corpus("a b c"))
    seq = encode("a b", vocab, max_len=6)
    assert seq[0] == CLS_ID
    ids, lengths = encode_dataset(corpus("a b", "c a b a", ""), vocab, max_len=6)
    assert lengths.tolist() == [3, 5, 1]
    for row, length, text in zip(ids.tolist(), lengths.tolist(), ["a b", "c a b a", ""]):
        assert row[:length] == encode(text, vocab, max_len=6)
        assert all(i == PAD_ID for i in row[length:])


def test_encode_rejects_max_len_below_two():
    vocab = build_vocab(corpus("a"))
    with pytest.raises(ValidationError):
        encode("a", vocab, max_len=1)


# Units of letters, punctuation and non-ASCII characters, so some are punctuation only and
# some have leading or trailing punctuation, joined by runs of mixed whitespace.
_UNIT = st.text(st.sampled_from("abAB.,!'\"-()?éΣ1"), min_size=1, max_size=6)
_SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\u00a0\u3000"), min_size=1, max_size=3)


@settings(max_examples=200)
@given(st.lists(st.tuples(_SPACE, _UNIT), max_size=30), _SPACE, st.integers(2, 24), st.integers(0, 3))
def test_encode_equals_tokenize_then_truncate(pieces, tail, max_len, vocab_cut):
    text = "".join(space + unit for space, unit in pieces) + tail
    expected_tokens = peel_tokenize(text)
    assert tokenize(text) == expected_tokens
    # A vocabulary that knows only some of the tokens, so that UNK shows up too.
    vocab = build_vocab(corpus(" ".join(expected_tokens[vocab_cut::2]) or "x"))
    kept = [vocab.lookup(token) for token in expected_tokens[: max_len - 1]]
    assert encode(text, vocab, max_len) == [CLS_ID, *kept]


def test_vocab_serialization_round_trip(tmp_path):
    vocab = build_vocab(corpus("alpha beta gamma alpha"), max_size=100, min_freq=1)
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded.sha256 == vocab.sha256


_WORD = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5),
    # backslashes, digits and non-ASCII letters, which the table holds raw
    st.text(st.sampled_from("a0\\9é日"), min_size=1, max_size=5),
    st.just("token"),  # the header's own name as a token
)


@settings(max_examples=100)
@given(st.lists(st.lists(_WORD, max_size=8).map(" ".join), min_size=1, max_size=6),
       st.integers(3, 12), st.integers(1, 3))
def test_vocab_save_load_round_trip_property(essays, max_size, min_freq):
    vocab = build_vocab(corpus(*essays), max_size=max_size, min_freq=min_freq)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.tsv"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        loaded = load_vocab(path)
    # Data line n holds the token of id n + 1.
    assert lines == ["token", *vocab.id_to_token[3:]]
    assert loaded == vocab
    assert loaded.token_to_id == vocab.token_to_id
    assert loaded.sha256 == vocab.sha256


def test_vocab_hash_ignores_the_bounds_it_was_built_under():
    data = corpus("alpha beta alpha beta gamma gamma")
    hashes = {build_vocab(data, max_size, min_freq).sha256 for max_size, min_freq in [(6, 1), (100, 1), (100, 2)]}
    assert len(hashes) == 1


def test_vocab_hash_changes_with_content():
    a = build_vocab(corpus("alpha beta"))
    b = build_vocab(corpus("alpha gamma"))
    assert a.sha256 != b.sha256


def test_vocab_hash_computed_once_per_vocab(tmp_path, monkeypatch):
    serialized = []

    def counting_serialize(vocab):
        serialized.append(1)
        return serialize_vocab(vocab)

    monkeypatch.setattr(text_module, "serialize_vocab", counting_serialize)
    vocab = build_vocab(corpus("alpha beta gamma alpha"))
    save_vocab(vocab, tmp_path / "vocab.tsv")
    loaded = load_vocab(tmp_path / "vocab.tsv")
    assert len(serialized) == 1  # save_vocab only: neither build nor load hashes
    expected = hashlib.sha256(serialize_vocab(vocab).encode("utf-8")).hexdigest()
    assert vocab.sha256 == vocab.sha256 == expected
    assert loaded.sha256 == expected
    assert len(serialized) == 3  # one hash per Vocab object


def test_load_vocab_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not json\nfoo\t3\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_vocab(path)


def test_load_vocab_header_must_be_token(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("word\nhello\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: vocabulary header must be 'token', got ['word']")):
        load_vocab(path)


@pytest.mark.parametrize("content, message", [
    ("token\nhello\nworld\nhello\n", "line 4: duplicate token 'hello'"),
    ("token\nhello\n\nworld\n", "line 3: empty token"),
], ids=["repeated", "empty"])
def test_load_vocab_refuses_a_token_that_cannot_have_one_id(tmp_path, content, message):
    path = tmp_path / "vocab.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(RowError, match=re.escape(f"{path}: {message}")):
        load_vocab(path)


@settings(max_examples=100)
@given(st.lists(st.one_of(st.sampled_from(["", "a", "b", "<pad>"]), _WORD), max_size=6))
def test_save_vocab_refuses_or_writes_what_loads_back_equal(tokens):
    """save_vocab either raises ValidationError and leaves no file, or writes a table load_vocab reads back equal."""
    vocab = Vocab(["<pad>", "<unk>", "<cls>", *tokens])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.tsv"
        try:
            save_vocab(vocab, path)
        except ValidationError:
            assert not path.exists()
            assert "" in tokens or len(set(tokens)) < len(tokens) or any(re.search("[\t\n]|\r$", t) for t in tokens)
            return
        assert load_vocab(path) == vocab
