"""Monte Carlo samples in ascending order, reduced column by column.

Every Monte Carlo pass maps its samples through :func:`fold_samples`, in
chunks that :func:`chunk_size` fits to the 2 GiB byte budget beside what the
pass holds, and folds them in ascending sample order: memory is one chunk
plus the held bytes whatever the sample count, and a pass that would not fit
is refused before it allocates.  A sweep holds a samples x statistics array;
``column_moments`` reduces it with Welford's running update applied to all
columns at once, so each column gets exactly the numbers of a scalar update
over its samples.  Every sample runs with OpenBLAS pinned to one thread, so a
given (seed, budget) produces bit-identical statistics whatever the worker
count or the BLAS thread setting.  Parallelism comes from ``workers`` alone
(by default :func:`usable_cpus`).  The OpenBLAS that numpy loaded also lends
the LAPACKE stages of ``dsyevd`` to :func:`szegolab.coefficients.spectral_data`.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ModelError
from .lattices import MEMORY_BUDGET_BYTES


@dataclass(frozen=True)
class StatSummary:
    mean: float
    stderr: float
    n_samples: int


def column_moments(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of every column of a samples x statistics array.

    Welford's recurrence runs over the rows in order; the standard error is 0
    below two samples.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    mean = np.zeros(samples.shape[1])
    m2 = np.zeros(samples.shape[1])
    for count, x in enumerate(samples, start=1):
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, np.sqrt(m2 / (n * (n - 1)))


def agreement_bound(a: float, b: float, stderr: float) -> float:
    """How far two estimates of one number may lie apart and agree: 3 combined
    standard errors, but at least rounding, 1e3 eps max(|a|, |b|) (stderr 0)."""
    return max(3.0 * stderr, 1e3 * np.finfo(float).eps * max(abs(a), abs(b)))


# (get, set) thread-count entry points, by the symbol names OpenBLAS builds use
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_control(path: str) -> Optional[Tuple[Callable, Callable]]:
    """(get, set) thread-count functions of the library at ``path``, if any."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _openblas_paths() -> Tuple[str, ...]:
    """Paths of every OpenBLAS mapped into the process, read from the maps now.

    So a library loaded later (scipy's own OpenBLAS, say) is found too.  Empty
    when no OpenBLAS is loaded or ``/proc/self/maps`` is unreadable.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    return tuple(sorted(paths))


def _openblas_controls() -> Tuple[Tuple[Callable, Callable], ...]:
    """(get, set) thread-count functions of every OpenBLAS mapped into the process."""
    controls = (_openblas_control(path) for path in _openblas_paths())
    return tuple(c for c in controls if c is not None)


def _raise_on_info(info: int, fn: Callable, args) -> int:
    if info != 0:
        raise np.linalg.LinAlgError(f"{fn.__name__} failed with info {info}")
    return info


@functools.lru_cache(maxsize=None)
def lapacke_eigensolver() -> Optional[Tuple[Callable, Callable, Callable]]:
    """LAPACKE ``(dsytrd, dstedc, dormtr)`` with 64-bit integers from numpy's
    OpenBLAS, or None when it lacks any of them.

    Looked up once, on first use.  Arguments follow LAPACKE's high-level
    interface (layout, then LAPACK's without the workspace); an info other
    than 0 raises ``np.linalg.LinAlgError``.  ctypes releases the GIL.
    """
    dbl = np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
    i64, ch, layout = ctypes.c_int64, ctypes.c_char, ctypes.c_int
    argtypes = {"dsytrd": [layout, ch, i64, dbl, i64, dbl, dbl, dbl],
                "dstedc": [layout, ch, i64, dbl, dbl, dbl, i64],
                "dormtr": [layout, ch, ch, ch, i64, i64, dbl, i64, dbl, dbl, i64]}
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fns = [getattr(lib, f"scipy_LAPACKE_{name}64_", None) for name in argtypes]
        if all(fn is not None for fn in fns):
            for fn, types in zip(fns, argtypes.values()):
                fn.argtypes, fn.restype, fn.errcheck = types, ctypes.c_int64, _raise_on_info
            return tuple(fns)
    return None


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


# glibc ``mallopt`` parameters, and what ``retain_freed_heap`` sets them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_MMAP_THRESHOLD = 4 << 20   # smaller blocks come from the heap
_HEAP_TRIM_THRESHOLD = 64 << 20  # free heap kept mapped before any goes back


def retain_freed_heap() -> None:
    """Keep freed heap memory mapped for the next sample, process-wide.

    By default glibc hands the top of the heap back to the OS, so each
    sample's arrays land on freshly zeroed pages (the README has the page
    fault counts).  Blocks under ``_HEAP_MMAP_THRESHOLD`` now come from the
    heap, and up to ``_HEAP_TRIM_THRESHOLD`` of free heap stays mapped.
    Worker threads share one heap, since an arena per thread kept its own
    high-water mark.  Results do not change.  Does nothing where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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


# finished outputs one chunk holds before they are folded, with TASK_BYTES for
# each task ``ThreadPoolExecutor.map`` holds (1.7 KB measured at two workers):
# 31 samples of verify_d1.ini (|g(H)|, two resolvents on 64 sites, a trace row)
CHUNK_BYTES = 5 << 20
TASK_BYTES = 2 << 10


def chunk_size(sample_bytes: int, out_bytes: int, held_bytes: int) -> int:
    """Samples per chunk of :func:`fold_samples`, so the most that run at once: as many of
    ``sample_bytes`` as fit the budget beside ``held_bytes``, and of ``out_bytes`` +
    ``TASK_BYTES`` as ``CHUNK_BYTES`` holds.  Raises ``ModelError`` if one sample does not fit."""
    need = sample_bytes + held_bytes
    if need > MEMORY_BUDGET_BYTES:
        raise ModelError(f"one sample ({sample_bytes} bytes) and the accumulators "
                         f"({held_bytes} bytes) need an estimated {need / 2 ** 30:.2f} GiB, "
                         f"over the {MEMORY_BUDGET_BYTES / 2 ** 30:.2f} GiB budget")
    return max(1, min(CHUNK_BYTES // (out_bytes + TASK_BYTES),
                      (MEMORY_BUDGET_BYTES - held_bytes) // sample_bytes))


def fold_samples(one: Callable, n_samples: int, fold: Callable[[int, object], None],
                 chunk: int, workers: int) -> None:
    """Map ``one`` over samples 0..n_samples-1 (at least one), ``chunk`` at a time;
    ``fold(s, out)`` runs on the calling thread in ascending sample order."""
    if n_samples < 1:
        raise ConfigError(f"n_samples = {n_samples}: a Monte Carlo pass needs at least 1")
    for start in range(0, n_samples, chunk):
        ids = range(start, min(start + chunk, n_samples))
        for s, out in zip(ids, ordered_map(one, ids, workers=workers)):
            fold(s, out)
