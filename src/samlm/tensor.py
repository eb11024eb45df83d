"""Dense float64 kernels, named parameters with gradient buffers, checkpoints,
and a central-difference gradient checker.

Everything is 64-bit: finite differences are the backbone of the test suite
and float32 makes them unreliable. Matrices are 2-d numpy arrays, vectors are
1-d; all kernels are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import settings
from .atomic import atomic_write

CHECKPOINT_FORMAT = 1
INIT_SCALE = 0.1
GRAD_CHECK_FLOOR = 1e-5
# Elements in one slice of a blocked pass (256 KiB of float64): four arrays'
# slices and a scratch slice fit a 2 MiB L2. Smaller slices spend more of a
# pass in per-call overhead, which holds the interpreter lock; at 8 192 two
# threads ran slower than one.
CHUNK = 32768


def softmax(v: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, with max-subtraction for
    stability."""
    if v.size < 1:
        raise ValueError("softmax of empty vector")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _pin(cpus: list[int], index: Iterator[int]) -> None:
    """Pin the starting pool thread, the i-th, to CPU cpus[(i + 1) % len(cpus)]."""
    try:
        os.sched_setaffinity(0, {cpus[(next(index) + 1) % len(cpus)]})
    except OSError:  # the CPU was taken from the process: run unpinned
        pass


@functools.lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    """Worker threads for `run_pieces`, made on first use and kept: starting
    them for every pass cost about half a millisecond a pass on a 2-CPU VM.

    Worker i is pinned to the (i + 1)-th CPU the process may use, wrapping
    round, and the calling thread stays unpinned: left to itself, Linux at
    times ran a worker on the caller's CPU, and two threads then took twice
    the time of one."""
    if not hasattr(os, "sched_setaffinity"):
        return ThreadPoolExecutor(threads, thread_name_prefix="samlm-blocked")
    cpus = sorted(os.sched_getaffinity(0))
    return ThreadPoolExecutor(
        threads, thread_name_prefix="samlm-blocked", initializer=_pin, initargs=(cpus, itertools.count())
    )


def run_pieces(n: int, fn: Callable[[int, int], None], least: int, align: int = 1) -> None:
    """Call `fn(lo, hi)` on contiguous pieces that cover range(n) in order,
    one per worker (`worker_count`), the inner cuts at multiples of `align`.

    The calling thread runs the first piece and pool threads the others.
    With fewer than `least` items per worker, `fn(0, n)` runs on the calling
    thread alone. A piece may therefore write only its own outputs. The first
    piece's exception is raised, once every piece has stopped.
    """
    workers = worker_count()
    if n < least * workers:
        fn(0, n)
        return
    cuts = [n * w // workers // align * align for w in range(workers)] + [n]
    futures = [_pool(workers - 1).submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        fn(cuts[0], cuts[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def run_blocked(groups: list[tuple[np.ndarray, ...]], kernel: Callable) -> None:
    """Call `kernel(i, *views, buf, ok)` on every CHUNK-element slice of the
    C-contiguous arrays in `groups[i]`, which all have one size.

    `views` are that slice of each array, flattened; `buf` (float64) and `ok`
    (bool) are scratch arrays of the slice's length, private to the thread
    that runs it. The slices of all groups, in order, are the items of one
    `run_pieces` call that needs two slices per worker. A kernel may
    therefore touch only its own slice, and an elementwise kernel gives the
    same bits for any worker count.
    """
    flats = [[a.reshape(-1) for a in arrays] for arrays in groups]
    slices = [(i, slice(lo, lo + CHUNK)) for i, group in enumerate(flats) for lo in range(0, group[0].size, CHUNK)]

    def run(lo: int, hi: int) -> None:
        buf, ok = np.empty(CHUNK), np.empty(CHUNK, dtype=bool)
        for i, sl in slices[lo:hi]:
            views = [a[sl] for a in flats[i]]
            n = views[0].size
            kernel(i, *views, buf[:n], ok[:n])

    run_pieces(len(slices), run, least=2)


def _halves(n: int) -> tuple[int, int]:
    """Where numpy's pairwise sum splits n elements: an even cut on a multiple of 8."""
    n2 = n // 2 - (n // 2) % 8
    return n2, n - n2


def _sum_leaves(lo: int, n: int) -> Iterator[tuple[int, int]]:
    """The [a, b) leaves of at most CHUNK elements of numpy's pairwise sum of
    the n elements from lo, in order."""
    if n <= CHUNK:
        yield lo, lo + n
        return
    left, right = _halves(n)
    yield from _sum_leaves(lo, left)
    yield from _sum_leaves(lo + left, right)


def _tree_sum(n: int, sums: Iterator[float]) -> float:
    """Add the leaf sums of n elements (`_sum_leaves`) as numpy's pairwise sum adds its halves."""
    if n <= CHUNK:
        return next(sums)
    left, right = _halves(n)
    return _tree_sum(left, sums) + _tree_sum(right, sums)  # the left half first


class Param:
    """One named tensor with its paired gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class ParamStore:
    """Ordered collection of uniquely named parameters.

    Mutation (gradient accumulation, optimizer steps) is single-writer: the
    optimizer's blocked passes (`run_blocked`) split one update across worker
    threads that write disjoint slices. Reads may be shared freely.
    """

    def __init__(self) -> None:
        self._params: dict[str, Param] = {}

    def add(
        self,
        name: str,
        shape: tuple[int, ...],
        init: str = "uniform",
        rng: np.random.Generator | None = None,
    ) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if any(n < 1 for n in shape):
            raise ValueError(f"non-positive dimension in {name}: {shape}")
        if init == "zeros":
            value = np.zeros(shape)
        elif init == "identity":
            if len(shape) != 2:
                raise ValueError("identity init needs a matrix shape")
            value = np.eye(shape[0], shape[1])
        elif init == "uniform":
            # without an rng the tensor is left unset: the caller loads it next
            value = np.empty(shape) if rng is None else rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
        else:
            raise ValueError(f"unknown init: {init}")
        p = Param(name, np.asarray(value, dtype=np.float64))
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def params(self) -> Iterator[Param]:
        return iter(self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def scale_grads(self, factor: float) -> None:
        def scale(_, g, buf, ok):
            g *= factor

        run_blocked([(p.grad,) for p in self._params.values()], scale)

    def grad_norm(self) -> float:
        return self._scaled_norm(1.0)

    def clip_grad_norm(self, max_norm: float, scale: float = 1.0) -> float:
        """Multiply every gradient by `scale`, then clip their global norm to
        `max_norm`; returns the norm before clipping."""
        norm = self._scaled_norm(scale)
        if norm > max_norm and norm > 0.0:
            self.scale_grads(max_norm / norm)
        return norm

    def _scaled_norm(self, scale: float) -> float:
        """Global gradient norm after multiplying the gradients by `scale` in
        place, with the bits of the sum of `np.sum(g * g)` over the tensors.

        `np.sum` of a contiguous array halves it (on a multiple of 8 rows) down
        to blocks of 128 elements and adds the halves back up. Here each
        tensor is cut at those points into leaves of at most CHUNK elements;
        the pool squares and sums each leaf while it is in cache, and the leaf
        sums are added back up the same tree."""
        total = 0.0
        for p in self._params.values():
            g = p.grad.reshape(-1)
            leaves = list(_sum_leaves(0, g.size))
            sums = [0.0] * len(leaves)

            def square(lo: int, hi: int) -> None:
                buf = np.empty(CHUNK)
                for j, (a, b) in enumerate(leaves[lo:hi], lo):
                    if scale != 1.0:
                        g[a:b] *= scale
                    sums[j] = float(np.sum(np.square(g[a:b], out=buf[: b - a])))  # the bits of g * g

            run_pieces(len(leaves), square, least=2)
            total += _tree_sum(g.size, iter(sums))
        return float(np.sqrt(total))

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray], source: str = "values") -> None:
        """Overwrite every parameter from `values`, which must hold exactly
        these names; `source` (a checkpoint path, say) names where they came
        from in the errors."""
        for name, p in self._params.items():
            if name not in values:
                raise ValueError(f"{source}: missing tensor {name}")
            src = values[name]
            if src.shape != p.value.shape:
                raise ValueError(f"{source}: shape mismatch loading {name}: {src.shape} vs {p.shape}")
            p.value[...] = src
        for name in values:
            if name not in self._params:
                raise ValueError(f"{source}: unexpected tensor {name}")


def save_checkpoint(path, store: ParamStore, config: dict | None = None) -> None:
    """Write a JSON header line followed by raw little-endian float64 blocks,
    atomically."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "<f8",
        "config": config,
        "tensors": [{"name": p.name, "shape": list(p.shape)} for p in store.params()],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in store.params():
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Read a checkpoint back into a name -> array map plus the stored config.

    Raises ValueError naming the file on a malformed header, and the tensor
    too on a bad or repeated entry, a truncated or non-finite block, or bytes
    left after the last block.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: unreadable header ({exc})") from None
        if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
            raise ValueError(f"checkpoint {path}: header is not an object with a list of tensors")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"checkpoint {path}: unsupported format {header.get('format')!r}")
        if not isinstance(header.get("config", {}), (dict, type(None))):
            raise ValueError(f"checkpoint {path}: config is not an object")
        tensors: dict[str, np.ndarray] = {}
        name = None
        for spec in header["tensors"]:
            if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
                raise ValueError(f"checkpoint {path}: tensor entry without a name: {spec!r}")
            name, shape = spec["name"], spec.get("shape")
            if name in tensors:
                raise ValueError(f"checkpoint {path}: tensor {name} appears twice")
            if not isinstance(shape, list) or not all(type(n) is int and n >= 1 for n in shape):
                raise ValueError(f"checkpoint {path}: tensor {name} has invalid shape {shape!r}")
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"checkpoint {path}: truncated reading tensor {name}")
            value = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(value).all():
                raise ValueError(f"checkpoint {path}: tensor {name} holds non-finite values")
            tensors[name] = value
        if fh.read(1):
            raise ValueError(f"checkpoint {path}: trailing bytes after the last tensor {name}")
    return tensors, header.get("config")


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    max_rel_error: dict[str, float]
    passed: bool

    def format_table(self) -> str:
        width = max((len(n) for n in self.max_rel_error), default=4)
        lines = [f"{'tensor'.ljust(width)}  max_rel_error  status"]
        for name, err in self.max_rel_error.items():
            status = "ok" if err <= self.tol else "FAIL"
            lines.append(f"{name.ljust(width)}  {err:13.3e}  {status}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} (tol {self.tol:g}, eps {self.eps:g})")
        return "\n".join(lines)


def grad_check(
    f: Callable[[ParamStore], float],
    store: ParamStore,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare the analytic gradients in `store` against central differences.

    The caller populates the gradient buffers (zero, forward, backward) before
    calling; `f` must be a deterministic re-evaluation of the same scalar that
    does not touch the gradient buffers.

    The relative error divides by max(|analytic|, |numeric|, GRAD_CHECK_FLOOR):
    central differences at eps around a unit-scale objective carry ~1e-10 of
    float64 cancellation noise, so entries smaller than the floor are
    effectively held to an absolute tolerance of tol * GRAD_CHECK_FLOOR instead
    of a meaningless ratio of two noise terms.
    """
    settings.real("tol", tol, or_zero=True)
    settings.real("eps", eps)
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"eps must be in [1e-7, 1e-4], got {eps!r}")
    analytic = {p.name: p.grad.copy() for p in store.params()}
    report: dict[str, float] = {}
    for p in store.params():
        flat = p.value.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(store)
            flat[i] = orig - eps
            f_minus = f(store)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"non-finite objective while perturbing {p.name}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), GRAD_CHECK_FLOOR)
            worst = max(worst, abs(a - numeric) / denom)
        report[p.name] = worst
    passed = all(err <= tol for err in report.values())
    return GradCheckReport(eps=eps, tol=tol, max_rel_error=report, passed=passed)
