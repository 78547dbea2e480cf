"""Machine and provenance block recorded with every benchmark run."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

# scipy-openblas exports its thread query under a suffixed name.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and "/" in line})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _blas_build(module):
    try:
        cfg = module.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block(root, seed):
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_build(numpy),
        "blas_scipy": _blas_build(scipy),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(root),
        "seed": seed,
    }
