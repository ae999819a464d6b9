"""Shared fixtures for the test suite."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from potgraph.catalogs import load_catalog
from potgraph.graphs import pattern_k6_c5


def _kernel_line() -> str:
    from potgraph import kernels

    return f"potgraph kernel: {kernels.implementation} ({kernels._impl.__file__})"


# A stray compiled build on the path runs the compiled-kernel tests that
# otherwise skip, so every run names its kernel: in the header, and in the
# summary, which -q still prints.
def pytest_report_header(config):
    return _kernel_line()


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(_kernel_line())


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def pattern():
    return pattern_k6_c5()


@pytest.fixture()
def catalog_dir(tmp_path) -> Path:
    """A writable copy of the packaged catalog directory."""
    import potgraph

    src = Path(potgraph.__file__).parent / "data"
    dst = tmp_path / "catalog"
    dst.mkdir()
    for name in src.glob("*.txt"):
        shutil.copy(name, dst / name.name)
    return dst
