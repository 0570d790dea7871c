"""BLAS threadpool guard for the intra-rank task executor.

The parallel plan executor (:mod:`repro.core.parallel`) runs tile GEMMs
on its own thread pool.  If the underlying BLAS also spins up its own
threads per call, a ``threads=4`` apply can land ``4 x blas_threads``
runnable threads on the host — oversubscription that wrecks serving p99
far more than it helps throughput.  The fix is the standard
threadpoolctl trick: pin BLAS to one thread *inside* parallel sections
and restore the ambient setting on exit.

threadpoolctl itself is an optional dependency we cannot assume, so this
module reimplements the narrow slice we need with ctypes: find the
OpenBLAS (or MKL) shared library NumPy/SciPy actually loaded, resolve
its ``*_set_num_threads`` / ``*_get_num_threads`` pair, and drive those.
Every probe failure degrades to a no-op guard — on an exotic BLAS the
executor still runs correctly, it just cannot prevent oversubscription.

The guard is **reentrant and refcounted**: concurrent serve workers all
enter ``limit_blas_threads(1)`` around their plan applies; the first
entry saves the ambient thread count and pins, the last exit restores.
Nested sections therefore see a stable setting, and the restore cannot
race between overlapping applies.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
import threading
from contextlib import contextmanager

__all__ = ["limit_blas_threads", "blas_thread_count", "blas_controller"]


class _BlasControl:
    """A resolved (set_num_threads, get_num_threads) pair."""

    def __init__(self, setter, getter):
        self._set = setter
        self._get = getter

    def get(self) -> int:
        try:
            return int(self._get())
        except Exception:
            return 0

    def set(self, n: int) -> None:
        try:
            self._set(int(n))
        except Exception:
            pass


#: Symbol-name candidates, most specific first.  SciPy >= 1.11 vendors
#: OpenBLAS with a ``scipy_openblas`` prefix (and an ILP64 ``64_``
#: suffix); older wheels export the plain OpenBLAS names.
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "goto_set_num_threads",
    "MKL_Set_Num_Threads",
)
_GET_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _candidate_libs() -> list[str]:
    """Shared BLAS libraries bundled with numpy, and with scipy when the
    process has already imported it: the probe imports nothing, and
    numpy's library is the one NumPy's matmul calls."""
    out: list[str] = []
    for mod in ("numpy", "scipy"):
        pkg = sys.modules.get(mod)
        if pkg is None:
            continue
        base = os.path.dirname(os.path.dirname(pkg.__file__))
        for libdir in (f"{mod}.libs", f"{mod}/.libs"):
            pat = os.path.join(base, libdir, "*")
            out.extend(
                p for p in sorted(glob.glob(pat))
                if "blas" in os.path.basename(p).lower()
            )
    return out


def _probe() -> _BlasControl | None:
    # Prefer threadpoolctl when it happens to be installed: it knows
    # every BLAS flavour and handles multiple loaded libraries.
    try:
        import threadpoolctl  # type: ignore

        ctl = threadpoolctl.ThreadpoolController()

        def _set(n: int, _ctl=ctl) -> None:
            _ctl.limit(limits=int(n), user_api="blas")

        def _get(_ctl=ctl) -> int:
            infos = [
                i["num_threads"]
                for i in _ctl.info()
                if i.get("user_api") == "blas"
            ]
            return max(infos) if infos else 0

        return _BlasControl(_set, _get)
    except Exception:
        pass
    for path in _candidate_libs():
        try:
            lib = ctypes.CDLL(path, mode=ctypes.RTLD_GLOBAL)
        except OSError:
            continue
        setter = getter = None
        for name in _SET_SYMBOLS:
            setter = getattr(lib, name, None)
            if setter is not None:
                break
        for name in _GET_SYMBOLS:
            getter = getattr(lib, name, None)
            if getter is not None:
                break
        if setter is not None and getter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return _BlasControl(setter, getter)
    return None


_probe_lock = threading.Lock()
_probed = False
_control: _BlasControl | None = None


def blas_controller() -> _BlasControl | None:
    """The process BLAS control handle, or ``None`` when unresolvable."""
    global _probed, _control
    if not _probed:
        with _probe_lock:
            if not _probed:
                _control = _probe()
                _probed = True
    return _control


def blas_thread_count() -> int:
    """Current BLAS thread setting (0 when no controllable BLAS found)."""
    ctl = blas_controller()
    return ctl.get() if ctl is not None else 0


_guard_lock = threading.Lock()
_guard_depth = 0
_guard_saved = 0


@contextmanager
def limit_blas_threads(n: int = 1):
    """Pin the BLAS threadpool to ``n`` for the duration of the block.

    Reentrant across threads: the outermost entry (process-wide) saves
    the ambient setting and pins; inner/concurrent entries just bump the
    refcount, and the last exit restores.  No-op when no controllable
    BLAS library could be resolved.
    """
    global _guard_depth, _guard_saved
    ctl = blas_controller()
    if ctl is None:
        yield
        return
    with _guard_lock:
        if _guard_depth == 0:
            _guard_saved = ctl.get()
            ctl.set(n)
        _guard_depth += 1
    try:
        yield
    finally:
        with _guard_lock:
            _guard_depth -= 1
            if _guard_depth == 0 and _guard_saved > 0:
                ctl.set(_guard_saved)
