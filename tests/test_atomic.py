import os

import numpy as np
import pytest

import samlm.atomic as atomic
from samlm.atomic import atomic_write
from samlm.attention import AttentionTrace, write_trace_csv
from samlm.corpus import Document, IndexedDocument, Vocabulary, write_jsonl
from samlm.evaluate import CategoryDeltas, WordDelta, WordDeltaReport, write_word_delta_csv
from samlm.ngram import KneserNeyModel
from samlm.tensor import ParamStore, save_checkpoint
from samlm.trainer import EpochStats, TrainConfig, write_history_csv


def _store(seed):
    store = ParamStore()
    store.add("a", (3, 4), rng=np.random.default_rng(seed))
    store.add("b", (5,), init="zeros")
    return store


WRITERS = {
    "checkpoint": lambda path, k: save_checkpoint(path, _store(k), config={"k": k}),
    "vocabulary": lambda path, k: Vocabulary(["<unk>", "<eos>", "<pad>"] + [f"w{k}_{i}" for i in range(4)], 3).save(path),
    "history": lambda path, k: write_history_csv([EpochStats(1, 2.0 + k, 3.0, 0.1)], path, TrainConfig()),
    "word_delta": lambda path, k: write_word_delta_csv(
        WordDeltaReport(0.05, 1, {"all": CategoryDeltas("all", improved=[WordDelta(f"w{k}", -0.5, 2)])}), path
    ),
    "kn_counts": lambda path, k: KneserNeyModel.fit([IndexedDocument("d", (3,) * k + (1,))], 2, 5).save(path),
    "attention": lambda path, k: write_trace_csv(AttentionTrace(alpha=np.full((1, 2), k / 4)), path),
    "jsonl": lambda path, k: write_jsonl([Document(f"d{k}", ("a", "b"))], path),
}


class _HalfWrittenFile:
    """A file that takes half of the first write and then fails, as a full
    disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _fail_mid_write(monkeypatch):
    real_open = open
    monkeypatch.setattr(
        atomic, "open", lambda path, mode, **kwargs: _HalfWrittenFile(real_open(path, mode, **kwargs)), raising=False
    )


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("fault", ["write", "replace"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer, fault):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1)
    before = path.read_bytes()
    if fault == "write":
        _fail_mid_write(monkeypatch)
    else:
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(atomic.os, "replace", failing_replace)
    with pytest.raises(OSError):
        WRITERS[writer](path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_previous_file(tmp_path, writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1)
    first = path.read_bytes()
    WRITERS[writer](path, 2)
    assert path.read_bytes() != first
    assert sorted(os.listdir(tmp_path)) == ["artifact"]


def test_exception_inside_block_removes_temporary(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("new")
            raise RuntimeError("boom")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]
