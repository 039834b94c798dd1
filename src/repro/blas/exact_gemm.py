"""The PE arrays' exact-order gemm, compiled and loaded once per host.

``exact_gemm.c`` sums each cell of C = A·B in blocks of z: each block
from +0.0 in z order, the block sums folded into C in block order,
rounding each product and each add once.  With one block that is the
single-blade array of Section 5.1; with blocks of m it is the
multi-FPGA array of Section 5.2, whose MM units sum the blocks and
whose extra adder folds them.  :func:`repro.blas.level3.sweep` is the
same sum in NumPy and the reference the tests pin the kernel to, byte
for byte.

A gemm of at least :data:`WORK_FLOOR` multiply-adds runs on one thread
per CPU the process may run on (:func:`threads`), at most one per
16-column panel of B and at most 64; a smaller one, such as a single
blade's gemm at n ≤ 128, runs on the calling thread alone, since
starting and joining a thread would cost more than it saves.  The
threads claim B's panels one at a time from a shared counter, and each
cell is summed by one thread in the order above, so the bits do not
depend on the thread count.  The CPUs are the process's affinity mask:
``taskset`` or a cpuset limits them; no option or environment variable
does, and ``OMP_NUM_THREADS`` is not read.

:func:`kernel` builds the source on first use with ``gcc -O3
-march=native -ffp-contract=off -pthread`` (no contraction, so no fused
multiply-add moves a bit) into a per-user cache, ``$XDG_CACHE_HOME/repro``
or ``~/.cache/repro``.  The file name hashes the source, the flags and
the host CPU's feature flags, so a native build is never loaded on
another CPU; later processes only load the cached file.  A build is
written under a temporary name and renamed into place, so a concurrent
process never loads a partial file.  Without a compiler, or when the
build or the load fails, :func:`kernel` returns ``None`` and the arrays
run the NumPy sweep: the same bits, slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

_log = logging.getLogger(__name__)

SOURCE = "exact_gemm.c"
#: The build: native code, no floating-point contraction, threads.
NATIVE_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-pthread",
                "-shared", "-fPIC")
#: Multiply-adds below which a gemm runs on the calling thread alone.  A
#: helper thread's start and join cost about 15–20 µs, which a second
#: thread first wins back at about n = 128; the floor sits between the
#: largest gemm the serve and runtime workloads run (n = 128, 2^21) and
#: the smallest gang of gang_scaleout (n = 512, 2^27).
WORK_FLOOR = 1 << 24
#: Columns of B in one panel, as ``exact_gemm.c``'s COLS.
PANEL_COLUMNS = 16

Gemm = Callable[..., np.ndarray]


def source() -> bytes:
    """The kernel's C source, as shipped with the package."""
    return resources.files(__package__).joinpath(SOURCE).read_bytes()


def compiler() -> Optional[str]:
    """``gcc`` on ``PATH``, or ``None``."""
    return shutil.which("gcc")


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or every
    CPU where the platform has no such call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def threads(p: int, q: int, r: int) -> int:
    """The threads that run a p×q · q×r gemm: one below
    :data:`WORK_FLOOR` multiply-adds, else one per CPU the process may
    run on, at most one per panel of B."""
    if p * q * r < WORK_FLOOR:
        return 1
    return min(_cpus(), -(-r // PANEL_COLUMNS))


def _host_cpu() -> bytes:
    """What a ``-march=native`` build depends on: the CPU's feature
    flags (the first ``flags`` line of ``/proc/cpuinfo``), else the
    platform's names for it."""
    try:
        with open("/proc/cpuinfo", "rb") as handle:
            for line in handle:
                if line.startswith(b"flags"):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}".encode()


def _cache_dir() -> Path:
    """The per-user build cache, created private (mode 0700); raises
    ``OSError`` when it cannot be created or written, ``RuntimeError``
    when there is no home directory to put it in."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(base) / "repro"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(f"{path} is not writable")
    return path


def _build(code: bytes, flags: Sequence[str], target: Path) -> bool:
    """Compile ``code`` to ``target`` through a temporary file renamed
    into place; False when no compiler is found or the build fails."""
    cc = compiler()
    if cc is None:
        return False
    partial = None
    try:
        fd, partial = tempfile.mkstemp(dir=target.parent,
                                       prefix=f".{target.name}.")
        os.close(fd)
        subprocess.run([cc, *flags, "-x", "c", "-", "-o", partial],
                       input=code, capture_output=True, check=True,
                       timeout=300)
        os.replace(partial, target)
        return True
    except (OSError, subprocess.SubprocessError) as exc:
        _log.warning("exact_gemm: %s build failed (%s); the arrays run "
                     "the NumPy sweep", cc, exc)
        return False
    finally:
        if partial is not None and os.path.exists(partial):
            os.unlink(partial)


def load(cache: Path, flags: Sequence[str] = NATIVE_FLAGS
         ) -> Optional[Gemm]:
    """The kernel built with ``flags`` in ``cache``, building it first
    if no cached file matches this source, these flags and this CPU;
    ``None`` when it cannot be built or loaded."""
    code = source()
    key = hashlib.sha256(b"\0".join(
        [code, " ".join(flags).encode(), _host_cpu()])).hexdigest()
    target = cache / f"exact_gemm-{key[:16]}.so"
    if not target.exists() and not _build(code, flags, target):
        return None
    try:
        gemm = ctypes.CDLL(str(target)).gemm
    except (OSError, AttributeError) as exc:
        _log.warning("exact_gemm: cannot load %s (%s); the arrays run "
                     "the NumPy sweep", target, exc)
        return None
    gemm.argtypes = [ctypes.c_ssize_t] * 5 + [ctypes.c_void_p] * 3
    gemm.restype = ctypes.c_int

    def multiply(A: np.ndarray, B: np.ndarray,
                 block: Optional[int] = None) -> np.ndarray:
        """C = A·B for A p×q and B q×r, in the arrays' exact order:
        each ``block``-wide run of z summed from +0.0 and the block
        sums folded in order (one block when ``block`` is None)."""
        A = np.ascontiguousarray(A, dtype=np.float64)
        B = np.ascontiguousarray(B, dtype=np.float64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError("A and B must be p×q and q×r matrices")
        if block is not None and block < 1:
            raise ValueError(f"block must be positive, not {block}")
        (p, q), r = A.shape, B.shape[1]
        C = np.empty((p, r))
        if gemm(p, q, r, block or 0, threads(p, q, r), A.ctypes.data,
                B.ctypes.data, C.ctypes.data):
            raise MemoryError("exact_gemm: no memory for a B panel")
        return C

    return multiply


@lru_cache(maxsize=None)
def kernel() -> Optional[Gemm]:
    """The native kernel from the per-user cache, built there on first
    use; when that directory cannot be had, a build in a temporary
    directory that is removed once the kernel is loaded.  ``None``
    without a compiler or when the build or load fails."""
    try:
        cache = _cache_dir()
    except (OSError, RuntimeError):
        with tempfile.TemporaryDirectory(
                prefix="repro-", ignore_cleanup_errors=True) as tmp:
            return load(Path(tmp))
    return load(cache)
