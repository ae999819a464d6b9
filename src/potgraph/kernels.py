"""Kernel selection: compiled extension when available, pure Python otherwise.

Both implement the contract documented in ``_kernels_py``; node counts, visit
order and witnesses are identical, so no output of this package depends on
which kernel is active. ``implementation`` names the one in use.
"""

from __future__ import annotations

from . import _kernels_py

__all__ = ["implementation", "search", "find_embedding", "MAX_SEARCH_VERTICES"]

try:
    from . import _kernels_c as _impl  # type: ignore[no-redef]
except ImportError:
    _impl = _kernels_py

implementation: str = _impl.IMPLEMENTATION
MAX_SEARCH_VERTICES: int = _kernels_py.MAX_SEARCH_VERTICES
search = _impl.search
find_embedding = _impl.find_embedding
