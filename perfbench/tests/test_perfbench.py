"""Tests of the benchmark's own code: span self times, tracing, input generation.

    python3 -m pytest perfbench/tests -q
"""

import filecmp
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import NO_PARENT  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, NO_PARENT],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["b.child", 5.0, 6.0, 2],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        ["root", 0.0, 10.0, NO_PARENT],
        ["a", 2.0, 5.0, 0],
        ["b", 4.0, 6.0, 0],  # overlaps a: covered interval is 2..6
        ["c", 9.0, 12.0, 0],  # runs past the parent: only 9..10 counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_time_never_negative():
    spans = [["root", 0.0, 1.0, NO_PARENT], ["a", 0.0, 1.0, 0], ["b", 0.0, 1.0, 0]]
    assert tracing.self_times(spans)[0] == 0.0


def test_summarize_and_inclusive_under():
    spans = [
        ["train.train", 0.0, 10.0, NO_PARENT],
        ["encoder.run_model", 1.0, 3.0, 0],
        ["encoder.forward", 1.5, 2.5, 1],
        ["encoder.run_model", 20.0, 25.0, NO_PARENT],
    ]
    table = tracing.summarize(spans)
    assert table["encoder.run_model"] == {"calls": 2, "self_s": pytest.approx(6.0), "total_s": pytest.approx(7.0)}
    assert table["train.train"]["self_s"] == pytest.approx(8.0)
    assert tracing.inclusive_under(spans, "encoder.run_model", "train.train") == pytest.approx(2.0)


def test_generator_is_deterministic(tmp_path):
    lexicon = gen.build_lexicon()
    assert len(set(lexicon.tolist())) == gen.LEXICON_SIZE
    assert np.array_equal(lexicon, gen.build_lexicon())
    for workload in gen.GENERATORS:
        first = gen.generate(workload, 7, str(tmp_path / "a" / workload), lexicon)
        again = gen.generate(workload, 7, str(tmp_path / "b" / workload))
        other = gen.generate(workload, 8, str(tmp_path / "c" / workload), lexicon)
        assert first.keys() == again.keys() == other.keys()
        for name in first:
            assert filecmp.cmp(first[name], again[name], shallow=False), (workload, name)
            assert not filecmp.cmp(first[name], other[name], shallow=False), (workload, name)


def _word_counts(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    return [len(row[1].split()) for row in rows]


def test_generated_lengths(tmp_path):
    paths = gen.generate("train_long", 3, str(tmp_path / "long"))
    for name in ("base", "pool", "dev", "test"):
        assert min(_word_counts(paths[name])) >= 63  # CLS + 63 tokens fills max_len 64
    paths = gen.generate("train_short_widevocab", 3, str(tmp_path / "short"))
    assert set(_word_counts(paths["train"])) <= set(range(10, 15))
    paths = gen.generate("score_ensemble", 3, str(tmp_path / "score"))
    test_counts = _word_counts(paths["test"])
    assert test_counts == sorted(test_counts) and test_counts[0] >= 5 and test_counts[-1] <= 120


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(gen.GENERATORS)


def test_tracing_times_forward_and_backward_and_restores():
    from miniaffect.nn import autodiff as ad

    original = ad.matmul
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tape = ad.Tape()
        a = ad.Node(np.ones((2, 3)))
        b = ad.Node(np.ones((3, 2)))
        loss = ad.mean_all(tape, ad.matmul(tape, a, b))
        tape.backward(loss)
    finally:
        patches.restore()
    assert ad.matmul is original
    table = tracing.summarize(tracer.spans)
    for name in ("autodiff.matmul.fwd", "autodiff.matmul.bwd", "autodiff.mean_all.bwd", "autodiff.backward"):
        assert table[name]["calls"] == 1, name
    assert tracer.closures_recorded == tracer.closures_run == 2
    assert tracer.backward_nodes == 2 and tracer.backward_calls == 1
    np.testing.assert_allclose(a.grad, np.full((2, 3), 0.5))


def test_nested_pause_restores_tracing():
    import workloads

    tracer = tracing.Tracer()
    bench_run = workloads.Run(1.0, tracer)
    with bench_run.paused():
        with bench_run.paused():
            pass
        assert not tracer.active
    assert tracer.active
