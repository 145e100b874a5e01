"""The environment a result was measured in."""

from __future__ import annotations

import io
import os
import platform
import subprocess
from contextlib import redirect_stdout
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            numpy.show_config()
        return {"text": buffer.getvalue()}
    deps = config.get("Build Dependencies", {})
    return {key: deps.get(key, {}) for key in ("blas", "lapack")}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or a note when the checkout is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git work tree)"
    if len(top) != 2 or Path(top[0]).resolve() != root.resolve():
        return "unknown (not a git work tree)"
    return top[1]


def environment() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "machine": platform.machine(),
    }
