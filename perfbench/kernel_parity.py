"""Compiled-versus-pure kernel parity, run when both kernels import.

The two kernels promise identical results, node counts included, so every
case below must return the same tuple from both. When the compiled kernel
was not built there is nothing to compare and the check is skipped; the
active kernel's speed is measured by the traced run as kernels.nodes_per_s.
"""

from __future__ import annotations

# (label, degree vector, use the wheel pattern sink)
CASES: tuple[tuple[str, tuple[int, ...], bool], ...] = (
    ("enumerate (5,3^5)", (5, 3, 3, 3, 3, 3), False),
    ("enumerate (6,3^6,2)", (6, 3, 3, 3, 3, 3, 3, 2), False),
    ("enumerate (6^2,3^4,2^2)", (6, 6, 3, 3, 3, 3, 2, 2), False),
    ("enumerate 3-regular n=8", (3,) * 8, False),
    ("wheel sink (6,3^6,2^2)", (6, 3, 3, 3, 3, 3, 3, 2, 2), True),
    ("wheel sink (8^3,3^6)", (8, 8, 8, 3, 3, 3, 3, 3, 3), True),
)

BUDGET = 10**9


def check() -> tuple[int, list[str], str]:
    """Return (cases compared, labels of mismatching cases, status line)."""
    try:
        import potgraph._kernels_c as kernel_c
    except ImportError:
        return 0, [], "skipped: compiled kernel not built"
    import potgraph._kernels_py as kernel_py
    from potgraph.graphs import _embedding_order, pattern_k6_c5

    rows = pattern_k6_c5().graph.rows
    order = _embedding_order(rows)
    mismatches = []
    for label, terms, with_pattern in CASES:
        args = (terms, None, BUDGET, None, rows if with_pattern else None,
                order if with_pattern else None, False)
        if kernel_c.search(*args) != kernel_py.search(*args):
            mismatches.append(label)
    return len(CASES), mismatches, f"{len(CASES) - len(mismatches)}/{len(CASES)} cases agree"
