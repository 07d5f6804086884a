"""Process set-up shared by the benchmark's entry points.

Import this before numpy: `pin_threads` must run before any BLAS or
OpenMP runtime starts.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OUT_DIR = Path(".perfbench_out")


def pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"


def find_source() -> Path | None:
    """The checkout's `src` directory, if the working directory is a checkout."""
    src = Path.cwd() / "src"
    return src if (src / "keplersym" / "__init__.py").is_file() else None


def source_id(src: Path) -> str:
    """SHA-256 over the paths and bytes of the program's source files: names
    the code under test, in a checkout that is not a git repository too."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load(src: Path) -> SimpleNamespace:
    """Import the program from the checkout (never from an installed copy)."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from keplersym import expr, invariants, kmaps, minkowski, orbit, symmetry

    return SimpleNamespace(expr=expr, invariants=invariants, kmaps=kmaps,
                           minkowski=minkowski, orbit=orbit, symmetry=symmetry)
