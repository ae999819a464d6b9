"""Sequence enumeration, cross-validation sweeps, report formats."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import potgraph
from potgraph.catalogs import load_catalog
from potgraph.errors import DomainError
from potgraph.survey import (
    cross_validate,
    enumerate_graphic_sequences,
    parse_survey_csv,
    render_report,
)


def test_enumeration_matches_brute_force_small():
    for n in range(1, 6):
        expected = sorted(
            (
                terms
                for terms in helpers.all_degree_vectors(n)
                if helpers.brute_force_is_graphic(terms)
            ),
            reverse=True,
        )
        got = [s.terms for s in enumerate_graphic_sequences(n, positive_only=False)]
        assert got == expected, n
        positive = [
            s.terms for s in enumerate_graphic_sequences(n, positive_only=True)
        ]
        assert positive == [t for t in expected if 0 not in t], n


def test_enumeration_counts_frozen():
    assert len(enumerate_graphic_sequences(6)) == 71
    assert len(enumerate_graphic_sequences(7)) == 240
    assert len(enumerate_graphic_sequences(8)) == 871
    assert len(enumerate_graphic_sequences(9)) == 3148
    assert len(enumerate_graphic_sequences(10)) == 11655
    assert len(enumerate_graphic_sequences(11)) == 43332
    assert len(enumerate_graphic_sequences(6, positive_only=False)) == 102


def test_enumeration_is_sorted_lexicographically_decreasing():
    seqs = [s.terms for s in enumerate_graphic_sequences(7)]
    assert seqs == sorted(seqs, reverse=True)


def test_enumeration_domain():
    with pytest.raises(DomainError):
        enumerate_graphic_sequences(0)
    with pytest.raises(DomainError):
        enumerate_graphic_sequences(13)


def test_cross_validate_theorem_only(catalog):
    report = cross_validate(6, use_oracle=False)
    assert report.n == 6
    assert report.total_sequences == 71
    assert report.potential_count == 8
    assert report.sigma_empirical is None
    assert report.sigma_formula == 26
    assert report.discrepancies == ()
    assert report.catalog_checksum == catalog.checksum
    assert len(report.records) == 71
    for record in report.records:
        assert record.oracle_verdict is None
        assert record.agree is True


def test_cross_validate_with_oracle():
    report = cross_validate(6, use_oracle=True)
    assert report.total_sequences == 71
    assert report.potential_count == 8
    assert report.sigma_empirical == 26
    assert report.discrepancies == ()
    positives = {r.sequence for r in report.records if r.oracle_verdict}
    assert positives == {
        "5^6",
        "5^4,4^2",
        "5^3,4^2,3",
        "5^2,4^4",
        "5^2,4^2,3^2",
        "5,4^4,3",
        "5,4^2,3^3",
        "5,3^5",
    }
    for record in report.records:
        assert record.oracle_verdict is not None
        assert record.theorem_verdict == record.oracle_verdict
        if record.lemma_verdict is not None:
            assert record.lemma_verdict == record.oracle_verdict


def test_jobs_do_not_change_results():
    serial = cross_validate(6, use_oracle=True, jobs=1)
    parallel = cross_validate(6, use_oracle=True, jobs=2)
    normalize = lambda rep: dataclasses.replace(rep, runtime=0.0)
    assert render_report(normalize(serial), "json") == render_report(
        normalize(parallel), "json"
    )
    with pytest.raises(DomainError):
        cross_validate(6, use_oracle=True, jobs=0)


def test_jobs_are_capped_at_cpu_count(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    capped = cross_validate(6, use_oracle=True, jobs=10**6)
    assert len(requested) == 1
    assert 1 <= requested[0] <= (os.cpu_count() or 1)
    serial = cross_validate(6, use_oracle=True, jobs=1)
    assert capped.records == serial.records


def test_serial_runs_do_not_load_multiprocessing():
    """Only a survey with jobs > 1 imports the process pool."""
    src = str(Path(potgraph.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from potgraph.cli import run_cli\n"
        "for argv in (['check', '5,3^5'], ['oracle', '5,3^5', '--no-witness-file'],\n"
        "             ['survey', '--n', '6', '--oracle']):\n"
        "    assert run_cli(argv) == 0, argv\n"
        "sys.exit('multiprocessing' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def test_determinism_across_runs():
    one = dataclasses.replace(cross_validate(7, use_oracle=False), runtime=0.0)
    two = dataclasses.replace(cross_validate(7, use_oracle=False), runtime=0.0)
    assert render_report(one, "csv") == render_report(two, "csv")
    assert render_report(one, "json") == render_report(two, "json")


def test_json_rendering_shape():
    report = cross_validate(6, use_oracle=False)
    text = render_report(report, "json")
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["n"] == 6
    assert data["total_sequences"] == 71
    assert data["sigma_formula"] == 26
    assert len(data["records"]) == 71
    assert data["records"][0]["sequence"] == "5^6"


# sha256 of the theorem-only reports with runtime zeroed, as (json, csv)
REPORT_SHA256 = {
    (6, False): (
        "9afaec036f1610330c6223e481ea57218490cb9fe13e49c45bdb79273e128d6a",
        "e8a6ce9411ea73d8264f9b9223f8058f4c6b5d9696bd3681a412562f51869f4c",
    ),
    (7, False): (
        "db461ec5d09ebd19634a47c5490efce9259fc5aeac8b00b7583203f57f6ea84f",
        "e4d87925e06af14e0ed625894de1356e5c4ca865c0753e8bd71fe7cd63aa42fe",
    ),
    (8, False): (
        "ed548da4ff3ae68011fa3717683a6a756718fe34ef2204bba32c23dfd4d9907d",
        "d0896e1996641d84f1674df38bf4383fad8b49df59ed81dd4adc1b340ec72f3c",
    ),
    (9, False): (
        "481691458270117167929d14e8736632f855430b6cc17794defbcc52ad80bcb8",
        "a1e2ba22ca3993c8c65b01ebfdec945b77c3aa25bcb6d7069c92a9e77ace9447",
    ),
    (7, True): (
        "3bc950949b2e71880d63269019f753c277eb808e5ac18e171f491ecffde5762f",
        "b80e30cb60cea76c38c5ba4d86c0ec99fb3afec2a3f826e74b98184f74d8061d",
    ),
}


@pytest.mark.filterwarnings("ignore:zero terms stripped")
@pytest.mark.parametrize("n,allow_zeros", sorted(REPORT_SHA256))
def test_theorem_only_report_bytes_are_pinned(n, allow_zeros):
    report = cross_validate(n, use_oracle=False, allow_zeros=allow_zeros)
    report = dataclasses.replace(report, runtime=0.0)
    got = tuple(
        hashlib.sha256(render_report(report, fmt).encode()).hexdigest()
        for fmt in ("json", "csv")
    )
    assert got == REPORT_SHA256[n, allow_zeros]


def test_json_rendering_matches_asdict():
    report = cross_validate(7, use_oracle=True)
    expected = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    assert render_report(report, "json") == expected


def test_report_schema_is_pinned():
    report = cross_validate(6, use_oracle=False)
    data = json.loads(render_report(report, "json"))
    assert list(data) == [
        "n",
        "total_sequences",
        "potential_count",
        "discrepancies",
        "sigma_empirical",
        "sigma_formula",
        "catalog_checksum",
        "runtime",
        "records",
    ]
    record_keys = [
        "sequence",
        "n",
        "sigma",
        "theorem_verdict",
        "failing_clause",
        "oracle_verdict",
        "lemma_verdict",
        "agree",
    ]
    assert list(data["records"][0]) == record_keys
    csv_lines = render_report(report, "csv").splitlines()
    header = next(line for line in csv_lines if not line.startswith("# "))
    assert header.split(",") == record_keys


def test_csv_round_trip():
    report = cross_validate(6, use_oracle=True)
    text = render_report(report, "csv")
    meta, records = parse_survey_csv(text)
    assert meta["n"] == "6"
    assert meta["total_sequences"] == "71"
    assert meta["potential_count"] == "8"
    assert meta["sigma_empirical"] == "26"
    assert meta["discrepancy_count"] == "0"
    assert meta["catalog_checksum"] == report.catalog_checksum
    assert records == list(report.records)


def test_render_unknown_format():
    report = cross_validate(6, use_oracle=False)
    with pytest.raises(DomainError):
        render_report(report, "yaml")


def test_allow_zeros_pads_and_warns():
    with pytest.warns(UserWarning):
        report = cross_validate(6, use_oracle=False, allow_zeros=True)
    assert report.total_sequences == 102
    padded = [r for r in report.records if "0" in r.sequence]
    assert padded
    # sequences that strip below six vertices carry no theorem verdict
    assert any(r.theorem_verdict is None for r in padded)


def test_domain_limits():
    with pytest.raises(DomainError):
        cross_validate(5, use_oracle=False)
    with pytest.raises(DomainError):
        cross_validate(13, use_oracle=False)
    with pytest.raises(DomainError):
        cross_validate(10, use_oracle=True)  # oracle sweeps stop at nine
    assert cross_validate(10, use_oracle=False).total_sequences > 0


def test_doctored_catalog_produces_discrepancies(catalog_dir):
    with (catalog_dir / "cond7_fixed.txt").open("a") as fh:
        fh.write("5,4^4,3\n")
    doctored = load_catalog(str(catalog_dir))
    report = cross_validate(6, use_oracle=True, catalog=doctored)
    assert report.discrepancies
    flagged = {r.sequence for r in report.discrepancies}
    assert flagged == {"5,4^4,3"}
    record = next(r for r in report.records if r.sequence == "5,4^4,3")
    assert record.theorem_verdict is False
    assert record.oracle_verdict is True
    assert record.agree is False
