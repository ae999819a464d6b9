"""Exception catalog loading and validation, and the parametric exception
rules that sit beside the catalog lists."""

from __future__ import annotations

import pytest

from potgraph.catalogs import FAMILY_KEYS, load_catalog
from potgraph.characterization import (
    cond7_parametric_match,
    two_high_parametric_match,
)
from potgraph.errors import DomainError
from potgraph.sequences import parse_sequence


def test_default_catalog_shape(catalog):
    assert len(catalog.set_s) == 40
    assert len(catalog.thm7_fixed) == 26
    assert isinstance(catalog.set_s, frozenset)
    assert isinstance(catalog.thm7_fixed, frozenset)
    assert set(catalog.lemma_exceptions) == set(FAMILY_KEYS)
    sizes = {k: len(v) for k, v in catalog.lemma_exceptions.items()}
    assert sizes == {
        "quad5": 0,
        "triple5": 1,
        "double5": 4,
        "single5": 13,
        "two_high": 9,
        "five_threes": 2,
    }
    assert catalog.checksum == (
        "sha256:7932f0e0aa20144a474c67b270a8fe5441769a989fbc2167d0b9688ba8337784"
    )


def test_checksum_is_stable(catalog):
    again = load_catalog()
    assert again.checksum == catalog.checksum
    assert again.set_s == catalog.set_s
    assert again.thm7_fixed == catalog.thm7_fixed


def terms(text):
    return parse_sequence(text).terms


def test_set_s_membership(catalog):
    assert terms("2") in catalog.set_s
    assert terms("3,3,1,1") in catalog.set_s
    assert terms("4^2") in catalog.set_s
    assert terms("4^4,2") in catalog.set_s
    assert terms("1,1") not in catalog.set_s
    assert terms("4,3,3,2,1,1") not in catalog.set_s


def test_cond7_membership(catalog):
    assert terms("5,4,3^5") in catalog.thm7_fixed
    assert terms("6^2,3^4,2") in catalog.thm7_fixed
    # documented catalog corrections are ordinary entries
    for text in ["6,3^6,2", "6^2,3^4,2^2", "7^2,3^4,2^3", "8,6,3^5,2,1"]:
        assert terms(text) in catalog.thm7_fixed, text
    assert terms("5,3^5") not in catalog.thm7_fixed


@pytest.mark.parametrize(
    "text,expected",
    [
        ("6,3^6", True),
        ("7,3^6,1", True),
        ("7,3^7", True),
        ("8,3^7,1", True),
        ("9,3^7,1^2", True),
        ("9,3^6,1^3", True),
        ("9,3^6,1^2", False),
        ("6,3^7", False),
        ("5,3^5", False),
        ("7,3^6", False),
    ],
)
def test_cond7_parametric_match(text, expected):
    assert cond7_parametric_match(parse_sequence(text)) is expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("7,7,3^6", True),
        ("6,6,3^6", True),
        ("6,5,3^5", True),
        ("8,7,3^7", True),
        ("5,5,3^4", False),
        ("7,7,3^5", False),
        ("8,8,3^6", False),
        ("7,6,3^6", False),
    ],
)
def test_two_high_parametric_match(text, expected):
    assert two_high_parametric_match(parse_sequence(text)) is expected


def test_family_exception_membership(catalog):
    listed = catalog.lemma_exceptions
    assert terms("5^3,3^3") in listed["triple5"]
    assert terms("5,3^7") in listed["single5"]
    assert terms("5,3^5") not in listed["single5"]
    assert terms("5^4,4^2") not in listed["quad5"]


def test_load_from_directory_matches_packaged(catalog, catalog_dir):
    copy = load_catalog(str(catalog_dir))
    assert copy.checksum == catalog.checksum
    assert copy.set_s == catalog.set_s


def test_missing_file_rejected(catalog_dir):
    (catalog_dir / "family_quad5.txt").unlink()
    with pytest.raises(DomainError) as info:
        load_catalog(str(catalog_dir))
    assert "family_quad5.txt" in str(info.value)


def test_duplicate_entry_rejected(catalog_dir):
    path = catalog_dir / "set_s.txt"
    with path.open("a") as fh:
        fh.write("2\n")
    with pytest.raises(DomainError) as info:
        load_catalog(str(catalog_dir))
    assert "set_s.txt" in str(info.value)


def test_unparsable_entry_names_file_and_line(catalog_dir):
    path = catalog_dir / "set_s.txt"
    lines = path.read_text().splitlines()
    with path.open("a") as fh:
        fh.write("wibble\n")
    with pytest.raises(DomainError) as info:
        load_catalog(str(catalog_dir))
    assert f"set_s.txt:{len(lines) + 1}" in str(info.value)


@pytest.mark.parametrize(
    "entry", ["1,1", "5,1", "3"]  # graphic / out of alphabet / odd sum
)
def test_set_s_entries_validated(catalog_dir, entry):
    with (catalog_dir / "set_s.txt").open("a") as fh:
        fh.write(entry + "\n")
    with pytest.raises(DomainError):
        load_catalog(str(catalog_dir))


def test_cond7_entries_must_be_graphic(catalog_dir):
    with (catalog_dir / "cond7_fixed.txt").open("a") as fh:
        fh.write("3,3,1,1\n")
    with pytest.raises(DomainError):
        load_catalog(str(catalog_dir))
