import json
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samlm.tensor as tensor_mod
from samlm.tensor import (
    CHUNK,
    ParamStore,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    run_blocked,
    run_pieces,
    sigmoid,
    softmax,
)

import oracles


class TestKernels:
    def test_matvec_identity(self):
        v = np.array([1.5, -2.0, 3.25])
        np.testing.assert_array_equal(np.eye(3) @ v, v)

    def test_matvec_hand(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m @ np.array([1.0, 1.0]), [3.0, 7.0])

    def test_matvec_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 4))
        v = rng.normal(size=4)
        expected = oracles.scalar_matvec(m.tolist(), v.tolist())
        np.testing.assert_allclose(m @ v, expected, atol=1e-12)

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_softmax_extreme_inputs_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_softmax_against_direct_evaluation(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(v), oracles.scalar_softmax(v.tolist()), atol=1e-15)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_softmax_is_a_distribution(self, xs):
        out = softmax(np.array(xs))
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_sigmoid_at_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_kernels_deterministic(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=9)
        assert np.array_equal(softmax(v), softmax(v.copy()))


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", (2, 2), init="zeros")
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", (2, 2), init="zeros")

    def test_grad_buffers_match_shapes(self):
        store = ParamStore()
        p = store.add("w", (3, 4), init="zeros")
        assert p.grad.shape == (3, 4)
        assert not p.grad.any()

    def test_clip_norm(self):
        store = ParamStore()
        p = store.add("w", (4,), init="zeros")
        p.grad[...] = 10.0
        store.clip_grad_norm(5.0)
        assert store.grad_norm() <= 5.0 + 1e-9

    def test_scale_and_zero(self):
        store = ParamStore()
        p = store.add("w", (2,), init="zeros")
        p.grad[...] = 2.0
        store.scale_grads(0.25)
        np.testing.assert_array_equal(p.grad, [0.5, 0.5])
        store.zero_grads()
        assert not p.grad.any()

    def test_load_values_missing_tensor_names_source_and_tensor(self):
        store = ParamStore()
        store.add("w", (2,), init="zeros")
        store.add("v", (3,), init="zeros")
        with pytest.raises(ValueError, match="run/x.ckpt: missing tensor v"):
            store.load_values({"w": np.ones(2)}, source="run/x.ckpt")

    def test_load_values_shape_mismatch_names_source(self):
        store = ParamStore()
        store.add("w", (2,), init="zeros")
        with pytest.raises(ValueError, match=r"run/x.ckpt: shape mismatch loading w: \(3,\) vs \(2,\)"):
            store.load_values({"w": np.ones(3)}, source="run/x.ckpt")


CHECKPOINT_DEFECTS = ["trailing", "nan", "negative_shape", "truncated"]


# a tensor of four slices, the last one short, one of fewer than CHUNK
# elements, and one of a single element
BLOCKED_SHAPES = {"big": (3 * CHUNK + 5,), "mid": (40, 25), "one": (1,)}


class TestBlocked:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_element_once_each_share_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: workers)
        # the tensors are consecutive runs of one array counting 0, 1, ..., so
        # a slice's first value is its offset
        sizes = [math.prod(shape) for shape in BLOCKED_SHAPES.values()]
        base = np.arange(sum(sizes), dtype=float)
        offsets = np.cumsum([0] + sizes)
        arrays = [base[lo:hi].reshape(shape) for lo, hi, shape in zip(offsets, offsets[1:], BLOCKED_SHAPES.values())]
        visits = []

        def kernel(i, a, buf, ok):
            assert a.ndim == 1 and buf.shape == ok.shape == a.shape
            visits.append((threading.get_ident(), int(a[0])))
            a += 1.0

        run_blocked([(a,) for a in arrays], kernel)
        np.testing.assert_array_equal(base, np.arange(base.size) + 1.0)
        firsts = [0, CHUNK, 2 * CHUNK, 3 * CHUNK, 3 * CHUNK + 5, 3 * CHUNK + 1005]
        assert sorted(first for _, first in visits) == firsts
        by_thread = {}
        for thread, first in visits:
            by_thread.setdefault(thread, []).append(first)
        assert all(run == sorted(run) for run in by_thread.values())
        # six slices, at least two per worker: the caller runs the first share
        assert by_thread[threading.get_ident()] == firsts[: len(firsts) // workers]
        assert min(workers, 2) <= len(by_thread) <= workers

    def test_fewer_than_two_slices_per_worker_run_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: 4)
        threads = set()
        run_blocked([(np.zeros(7 * CHUNK),)], lambda i, a, buf, ok: threads.add(threading.get_ident()))
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("max_norm", [1e-3, 1e9])
    def test_clip_bits_match_expression_form(self, monkeypatch, workers, max_norm):
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: workers)
        rng = np.random.default_rng(5)
        store = ParamStore()
        expected = {}
        for name, shape in BLOCKED_SHAPES.items():
            grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
            store.add(name, shape, init="zeros").grad[...] = grad
            expected[name] = grad * 0.3
        norm = store.clip_grad_norm(max_norm, scale=0.3)
        want = math.sqrt(sum(float(np.sum(g * g)) for g in expected.values()))
        assert norm.hex() == want.hex()
        if norm > max_norm:
            expected = {name: g * (max_norm / want) for name, g in expected.items()}
        for name, g in expected.items():
            assert store[name].grad.tobytes() == g.tobytes(), name
        assert store.grad_norm() == math.sqrt(sum(float(np.sum(g * g)) for g in expected.values()))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_norm_has_the_bits_of_np_sum(self, monkeypatch, workers):
        # paper shapes (E and Wout at V = 10 000 and 1 000, d = 200, a GRU input
        # matrix, an attribute table), 1-d sizes round numpy's pairwise-sum
        # blocks and CHUNK, and the suite's shapes
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: workers)
        sizes = (7, 127, 128, 129, 8191, CHUNK, CHUNK + 1, 2 * CHUNK + 8, 100003)
        shapes = [(10000, 200), (1000, 200), (200, 400), (12, 200)] + [(n,) for n in sizes]
        rng = np.random.default_rng(9)
        for shape in shapes + list(BLOCKED_SHAPES.values()):
            grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
            for scale in (1.0, 0.3):
                store = ParamStore()
                store.add("g", shape, init="zeros").grad[...] = grad
                want = math.sqrt(float(np.sum(np.square(grad * scale))))
                assert store.clip_grad_norm(math.inf, scale=scale).hex() == want.hex(), (shape, scale)
                assert store["g"].grad.tobytes() == (grad * scale).tobytes()


class TestPieces:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n, least, align", [(419, 2, 1), (62, 11, 1), (10000, 128, 64), (200, 64, 64), (5, 2, 1)])
    def test_pieces_cover_the_range_in_order(self, monkeypatch, workers, n, least, align):
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: workers)
        pieces = []
        run_pieces(n, lambda lo, hi: pieces.append((lo, hi, threading.get_ident())), least, align)
        spans = sorted((lo, hi) for lo, hi, _ in pieces)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        if n < least * workers:
            assert pieces == [(0, n, threading.get_ident())]
            return
        assert len(spans) == workers
        assert all(hi - lo >= least and lo % align == 0 for lo, hi in spans)
        assert (0, spans[0][1], threading.get_ident()) in pieces  # the caller runs the first piece

    def test_every_piece_stops_before_an_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: 3)
        done = []

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("first piece")
            threading.Event().wait(0.05)
            done.append(lo)

        with pytest.raises(ValueError, match="first piece"):
            run_pieces(30, fn, 2)
        assert sorted(done) == [10, 20]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_pool_thread_runs_on_one_cpu_of_the_process(self, threads):
        cpus = sorted(os.sched_getaffinity(0))
        barrier = threading.Barrier(threads)  # every thread of the pool reports once

        def report():
            barrier.wait(timeout=10)
            return os.sched_getaffinity(0)

        futures = [tensor_mod._pool(threads).submit(report) for _ in range(threads)]
        masks = [future.result() for future in futures]
        assert all(len(mask) == 1 for mask in masks)
        assert sorted(min(mask) for mask in masks) == sorted(cpus[(i + 1) % len(cpus)] for i in range(threads))
        assert sorted(os.sched_getaffinity(0)) == cpus  # the calling thread stays unpinned


def corrupt_checkpoint(path, defect):
    """Damage the last tensor block of a saved checkpoint in place; returns
    that tensor's name and the message the loader should give."""
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    last = header["tensors"][-1]
    if defect == "trailing":
        body += b"\0" * 8
        expected = f"trailing bytes after the last tensor {last['name']}"
    elif defect == "nan":
        body = body[:-8] + np.array([np.nan], dtype="<f8").tobytes()
        expected = f"tensor {last['name']} holds non-finite values"
    elif defect == "negative_shape":
        last["shape"] = [-n for n in last["shape"]]
        expected = f"tensor {last['name']} has invalid shape"
    else:
        body = body[:-8]
        expected = f"truncated reading tensor {last['name']}"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    return expected



def append_tensor(path, name, value):
    """Append one well-formed tensor to a saved checkpoint in place."""
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["tensors"].append({"name": name, "shape": list(value.shape)})
    body += np.ascontiguousarray(value, dtype="<f8").tobytes()
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)

def rewrite_header(path, edit):
    """Apply `edit` to a saved checkpoint's parsed header in place; the
    header written back is whatever `edit` returns."""
    header_line, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(header_line))).encode("utf-8") + b"\n" + body)


def first_entry(**fields):
    """A header edit that updates the first tensor entry with `fields`,
    dropping those given as None."""

    def edit(header):
        entry = header["tensors"][0]
        entry.update(fields)
        for key, value in fields.items():
            if value is None:
                del entry[key]
        return header

    return edit


MALFORMED_HEADERS = {
    "json_list": (lambda header: header["tensors"], "header is not an object with a list of tensors"),
    "no_tensors": (lambda header: {k: v for k, v in header.items() if k != "tensors"}, "list of tensors"),
    "tensors_not_a_list": (lambda header: {**header, "tensors": 5}, "list of tensors"),
    "no_name": (first_entry(name=None), "tensor entry without a name"),
    "shape_not_a_list": (first_entry(shape=3), "tensor a has invalid shape 3"),
    "boolean_dimension": (first_entry(shape=[True, 3]), "tensor a has invalid shape [True, 3]"),
    "config_not_an_object": (lambda header: {**header, "config": [1]}, "config is not an object"),
}


class TestCheckpoint:
    def _store(self, seed):
        store = ParamStore()
        rng = np.random.default_rng(seed)
        store.add("a", (2, 3), rng=rng)
        store.add("b", (4,), init="zeros")
        return store

    def test_roundtrip(self, tmp_path):
        store = self._store(3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, config={"d": 3})
        values, config = load_checkpoint(path)
        assert config == {"d": 3}
        np.testing.assert_array_equal(values["a"], store["a"].value)
        np.testing.assert_array_equal(values["b"], store["b"].value)

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
        save_checkpoint(p1, self._store(5), config=None)
        save_checkpoint(p2, self._store(5), config=None)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("defect", CHECKPOINT_DEFECTS)
    def test_damaged_checkpoint_rejected_naming_file_and_tensor(self, tmp_path, defect):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._store(3), config={"d": 3})
        expected = corrupt_checkpoint(path, defect)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and expected in str(err.value)

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_rejected_naming_the_file(self, tmp_path, case):
        edit, expected = MALFORMED_HEADERS[case]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._store(3), config={"d": 3})
        rewrite_header(path, edit)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert f"checkpoint {path}: " in str(err.value) and expected in str(err.value)

    def test_header_that_is_not_json_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"\xff{not json\n")
        with pytest.raises(ValueError, match="unreadable header") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_repeated_tensor_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._store(3), config={"d": 3})
        append_tensor(path, "a", np.ones((2, 3)))
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: tensor a appears twice"):
            load_checkpoint(path)

    def test_little_endian_payload(self, tmp_path):
        store = ParamStore()
        p = store.add("x", (1,), init="zeros")
        p.value[0] = 1.0
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, store)
        raw = path.read_bytes()
        body = raw.split(b"\n", 1)[1]
        assert body == np.array([1.0], dtype="<f8").tobytes()


class TestGradCheck:
    def _quadratic_store(self):
        store = ParamStore()
        rng = np.random.default_rng(11)
        p = store.add("theta", (6,), init="zeros")
        p.value[...] = rng.uniform(0.5, 1.5, 6)
        return store, p

    @staticmethod
    def _half_norm_sq(store):
        total = 0.0
        for p in store.params():
            total += 0.5 * float(np.sum(p.value**2))
        return total

    def test_quadratic_gradient(self):
        store, p = self._quadratic_store()
        p.grad[...] = p.value
        report = grad_check(self._half_norm_sq, store)
        assert report.passed
        assert report.max_rel_error["theta"] < 1e-8

    def test_corrupted_gradient_fails(self):
        store, p = self._quadratic_store()
        p.grad[...] = p.value + 0.1
        assert not grad_check(self._half_norm_sq, store).passed

    def test_eps_bounds_enforced(self):
        store, p = self._quadratic_store()
        with pytest.raises(ValueError, match="eps"):
            grad_check(self._half_norm_sq, store, eps=1e-2)

    @pytest.mark.parametrize("setting, value, message", [
        ("tol", math.inf, "tol must be finite and at least 0, got inf"),
        ("tol", math.nan, "tol must be finite and at least 0, got nan"),
        ("tol", -1e-4, "tol must be finite and at least 0, got -0.0001"),
        ("tol", "1e-4", "tol must be finite and at least 0, got '1e-4'"),
        ("eps", "1e-5", "eps must be finite and positive, got '1e-5'"),
        ("eps", math.nan, "eps must be finite and positive, got nan"),
        ("eps", 1e-2, r"eps must be in \[1e-7, 1e-4\], got 0.01"),
    ])
    def test_settings_checked(self, setting, value, message):
        store, p = self._quadratic_store()
        p.grad[...] = p.value
        with pytest.raises(ValueError, match=message):
            grad_check(self._half_norm_sq, store, **{setting: value})

    def test_zero_tol_accepted(self):
        store, p = self._quadratic_store()
        p.grad[...] = p.value
        assert grad_check(self._half_norm_sq, store, tol=0.0).tol == 0.0

    def test_non_finite_objective_rejected(self):
        store, p = self._quadratic_store()

        def bad(store):
            return float("nan")

        with pytest.raises(ValueError, match="non-finite"):
            grad_check(bad, store)

    def test_report_table_mentions_every_tensor(self):
        store, p = self._quadratic_store()
        p.grad[...] = p.value
        table = grad_check(self._half_norm_sq, store).format_table()
        assert "theta" in table and "PASS" in table
