"""The benchmark's tracer wraps potgraph attributes by name; keep them there.

``perfbench/tracer.py`` reports an attribute it cannot find as "not traced"
and its metrics as zero, so a rename in the package would silently empty a
per-layer metric. This test reads the tracer's point table and fails instead.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _points():
    if not TRACER.is_file():
        return []
    return runpy.run_path(str(TRACER))["POINTS"]


def test_tracer_point_table_is_read():
    if not TRACER.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    assert len(_points()) >= 10


@pytest.mark.parametrize(
    "point,module,attr", [(point, module, attr) for point, _, module, attr in _points()]
)
def test_tracer_point_exists(point, module, attr):
    assert module.startswith("potgraph"), point
    assert callable(getattr(importlib.import_module(module), attr, None)), point
