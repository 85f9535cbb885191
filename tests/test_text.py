import hashlib
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miniaffect.text as text_module
from miniaffect.data import Dataset, EssayRecord
from miniaffect.errors import FormatError, ValidationError
from miniaffect.text import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    build_vocab,
    encode,
    load_vocab,
    save_vocab,
    serialize_vocab,
    tokenize,
)


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
    seq = encode("", vocab, max_len=8)
    assert seq.ids == (CLS_ID,) + (PAD_ID,) * 7
    assert seq.true_length == 1


def test_encode_oov_maps_to_unk():
    vocab = build_vocab(corpus("a b"))
    seq = encode("a zzz b", vocab, max_len=8)
    assert seq.ids[1] == vocab.lookup("a")
    assert seq.ids[2] == UNK_ID
    assert seq.ids[3] == vocab.lookup("b")


def test_encode_truncation():
    words = " ".join(f"w{i}" for i in range(100))
    vocab = build_vocab(corpus(words))
    seq = encode(words, vocab, max_len=16)
    assert len(seq.ids) == 16
    assert seq.true_length == 16
    # count-based check: 15 token slots after CLS, so 85 of 100 drop
    assert sum(1 for i in seq.ids if i != PAD_ID and i != CLS_ID) == 15


def test_encode_starts_with_cls_and_pads():
    vocab = build_vocab(corpus("a b c"))
    seq = encode("a b", vocab, max_len=6)
    assert seq.ids[0] == CLS_ID
    assert all(i == PAD_ID for i in seq.ids[seq.true_length:])


def test_encode_rejects_max_len_below_two():
    vocab = build_vocab(corpus("a"))
    with pytest.raises(ValidationError):
        encode("a", vocab, max_len=1)


def test_vocab_serialization_round_trip(tmp_path):
    vocab = build_vocab(corpus("alpha beta gamma alpha"), max_size=100, min_freq=1)
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded.sha256 == vocab.sha256


_WORD = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)


@settings(max_examples=100)
@given(st.lists(st.lists(_WORD, max_size=8).map(" ".join), min_size=1, max_size=6),
       st.integers(3, 12), st.integers(1, 3))
def test_vocab_save_load_round_trip_property(essays, max_size, min_freq):
    vocab = build_vocab(corpus(*essays), max_size=max_size, min_freq=min_freq)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.tsv"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded.sha256 == vocab.sha256


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
    with pytest.raises(FormatError):
        load_vocab(path)


def test_load_vocab_non_integer_id_names_file_and_line(tmp_path):
    path = tmp_path / "vocab.tsv"
    save_vocab(build_vocab(corpus("alpha beta gamma")), path)
    path.write_text(path.read_text(encoding="utf-8") + "word\tabc\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 5: vocabulary id 'abc' is not an integer")):
        load_vocab(path)


def test_serialize_vocab_contiguous_ids():
    vocab = build_vocab(corpus("c b a"))
    lines = serialize_vocab(vocab).strip().split("\n")[1:]
    ids = [int(line.split("\t")[1]) for line in lines]
    assert ids == list(range(3, 3 + len(ids)))
