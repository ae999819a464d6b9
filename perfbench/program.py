"""Build potgraph from the checkout's source and describe what was built.

The benchmark never imports the package from an installed copy: it runs
``setup.py build`` into ``.bench_build/`` (the compiled kernel is built there
when the checkout's build can make it; otherwise only the pure-Python files
are copied) and puts that build first on ``sys.path``. Every ``POTGRAPH_*``
variable is removed from the environment first, so the kernel is chosen by
``auto`` and the packaged catalog is used.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_BASE = ROOT / ".bench_build" / "potgraph"
BUILD_LIB = BUILD_BASE / "lib"
BUILD_TIMEOUT_S = 800


class ProgramMissing(Exception):
    """The checkout holds no potgraph source to build."""


def clean_env() -> dict[str, str]:
    """The process environment without any POTGRAPH_* variable."""
    return {k: v for k, v in os.environ.items() if not k.startswith("POTGRAPH_")}


def build() -> Path:
    """Build the package into BUILD_LIB, unless it was built from the same
    sources already, and return that directory.

    Raises:
        ProgramMissing: no setup.py or src/potgraph in the checkout.
        RuntimeError: the build failed (its output is in the message).
    """
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "potgraph").is_dir():
        raise ProgramMissing(f"no potgraph source under {ROOT}")
    stamp = BUILD_BASE / "sources.sha256"
    digest = tree_digest()
    if stamp.is_file() and stamp.read_text() == digest:
        return BUILD_LIB
    # a fresh copy, so no module deleted from src/ lingers in the build
    shutil.rmtree(BUILD_LIB, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(BUILD_BASE),
         "--build-lib", str(BUILD_LIB)],
        cwd=ROOT,
        env=clean_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not (BUILD_LIB / "potgraph" / "__init__.py").is_file():
        raise RuntimeError(f"setup.py build failed:\n{proc.stdout}")
    stamp.write_text(digest)
    return BUILD_LIB


def activate() -> None:
    """Build, scrub POTGRAPH_* from os.environ and make the build importable."""
    lib = build()
    for key in [k for k in os.environ if k.startswith("POTGRAPH_")]:
        del os.environ[key]
    sys.path.insert(0, str(lib))


def tree_digest() -> str:
    """Digest of the package sources and build files."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    files += [p for p in (ROOT / "setup.py", ROOT / "pyproject.toml") if p.is_file()]
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


def commit() -> str | None:
    """The checkout's git commit, or None when it is not a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def context() -> dict:
    """What ran: kernel, interpreter, cores, catalog checksum and sources."""
    import potgraph
    from potgraph import kernels

    return {
        "kernel": kernels.implementation,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "catalog_checksum": potgraph.default_catalog().checksum,
        "commit": commit(),
        "sources": tree_digest(),
    }
