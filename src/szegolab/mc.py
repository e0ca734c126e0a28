"""Monte Carlo accumulation with deterministic, order-fixed reduction.

Sample estimates are always combined in ascending sample order, whatever the
worker count, and every sample runs with OpenBLAS pinned to one thread, so a
given (seed, budget) produces bit-identical statistics whatever the worker
count or the BLAS thread setting.  Parallelism comes from ``workers`` alone.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .errors import NumericError


@dataclass
class MCAccumulator:
    """Welford running mean / variance accumulator."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def push(self, x: float):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count * (self.count - 1)))

    def summary(self) -> "StatSummary":
        return StatSummary(self.mean, self.stderr, self.count)


@dataclass(frozen=True)
class StatSummary:
    mean: float
    stderr: float
    count: int

    def to_dict(self) -> Dict:
        return {"mean": float(self.mean), "stderr": float(self.stderr),
                "n_samples": int(self.count)}


# (get, set) thread-count entry points, by the symbol names OpenBLAS builds use
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_controls() -> Tuple[Tuple[Callable, Callable], ...]:
    """(get, set) thread-count functions of every OpenBLAS mapped into the process.

    Empty when no OpenBLAS is loaded or ``/proc/self/maps`` is unreadable.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS at one thread, then restore the previous count.

    BLAS thread count changes the summation order inside ``eigh`` and so the
    last bits of every sample; pinning it makes results independent of it.
    The count is process-wide, so the pin may nest (inside ``fn`` of an
    ``ordered_map``, say) but must not be entered from two unrelated threads
    at once.  Does nothing when no OpenBLAS is found.
    """
    controls = _openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, previous):
            set_(n)


def ordered_map(fn: Callable, args: Iterable, workers: int = 1) -> List:
    """Map preserving input order; thread-parallel for workers > 1.

    Every call of ``fn`` runs with OpenBLAS pinned to one thread.
    """
    args = list(args)
    with single_blas_thread():
        if workers <= 1 or len(args) <= 1:
            return [fn(a) for a in args]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args))


def mc_estimate(estimator: Callable[[int, int], float], budget: int, seed: int = 0,
                workers: int = 1) -> MCAccumulator:
    """Mean/stderr of ``estimator(seed, sample_id)`` over ``budget`` samples.

    Estimator failures are re-raised with the offending sample id attached.
    """
    if budget < 1:
        raise NumericError("budget must be >= 1")

    def one(sample_id: int) -> float:
        try:
            return float(estimator(seed, sample_id))
        except Exception as exc:
            raise NumericError(f"estimator failed at sample {sample_id}: {exc}") from exc

    values = ordered_map(one, range(budget), workers=workers)
    acc = MCAccumulator()
    for v in values:
        acc.push(v)
    return acc

