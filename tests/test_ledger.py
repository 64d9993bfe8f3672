"""The committed science ledger, EXPERIMENTS.md and the claims agree.

Nothing here simulates: ``python -m repro ledger check`` (its own CI
job) re-measures the values.  The committed values stand in for a fresh
measurement, so the document, the bands, the claims and the two verbs
are checked against one another.
"""

import io
import json

import pytest

from repro.cli import main
from repro.experiments import ledger


@pytest.fixture(scope="module")
def committed():
    return ledger.load_ledger()


@pytest.fixture(scope="module")
def values(committed):
    return ledger.committed_values(committed)


def _run_check(monkeypatch, values):
    measured = {key: (value, 1) for key, value in values.items()}
    monkeypatch.setattr(ledger, "measure", lambda jobs: measured)
    out = io.StringIO()
    return main(["ledger", "check"], out=out), out.getvalue()


def test_experiments_md_blocks_equal_the_rendered_ledger(values):
    with open(ledger.DOC_PATH, encoding="utf-8") as handle:
        doc = handle.read()
    assert ledger.apply_blocks(doc, ledger.render_blocks(values)) == doc


def test_committed_values_hold_every_claim_inside_their_bands(committed, values):
    assert [c.id for c in ledger.false_claims(values)] == []
    assert ledger.compare(committed, values) == []
    for key, entry in committed["values"].items():
        assert tuple(entry["band"]) == ledger.band_for(key, entry["value"]), key


def test_claims_cover_every_former_bench_assertion():
    bench = [c.source for c in ledger.CLAIMS if c.source.startswith("bench_")]
    assert len(bench) == len(set(bench)) == 68
    ids = [c.id for c in ledger.CLAIMS]
    assert len(ids) == len(set(ids))


def test_check_passes_and_counts_exact_reproductions(monkeypatch, values):
    code, text = _run_check(monkeypatch, values)
    assert code == 0, text
    assert "%d values (%d reproduced exactly)" % (len(values), len(values)) in text


def test_check_fails_and_names_a_value_outside_its_band(monkeypatch, committed, values):
    key = "fig9.T50.energy_coordinated_j"
    high = committed["values"][key]["band"][1]
    code, text = _run_check(monkeypatch, dict(values, **{key: high * 1.01}))
    assert code == 1
    assert "FAIL value %s = " % key in text and "outside its band" in text


def test_check_names_a_false_claim_and_missing_or_unexpected_keys(monkeypatch, values):
    doctored = dict(values, **{"mrmm.mrmm.forwards_suppressed": 0})
    code, text = _run_check(monkeypatch, doctored)
    assert code == 1
    assert "FAIL claim mrmm.suppresses_forwards is false (bench_mrmm_ablation.py:58)" in text
    del doctored["fig1.far.mean_m"]
    doctored["fig1.far.median_m"] = 1.0
    code, text = _run_check(monkeypatch, doctored)
    assert "FAIL missing value fig1.far.mean_m" in text
    assert "FAIL unexpected value fig1.far.median_m" in text


def test_update_rewrites_the_ledger_and_the_document(monkeypatch, tmp_path, values):
    with open(ledger.DOC_PATH, encoding="utf-8") as handle:
        (tmp_path / "EXPERIMENTS.md").write_text(handle.read(), encoding="utf-8")
    monkeypatch.setattr(ledger, "DOC_PATH", str(tmp_path / "EXPERIMENTS.md"))
    monkeypatch.setattr(ledger, "LEDGER_PATH", str(tmp_path / "ledger.json"))
    shifted = dict(values, **{"fig6.T10.time_average_m": 6.0})
    measured = {key: (value, 1) for key, value in shifted.items()}
    monkeypatch.setattr(ledger, "measure", lambda jobs: measured)

    assert main(["ledger", "update"], out=io.StringIO()) == 0
    written = json.loads((tmp_path / "ledger.json").read_text(encoding="utf-8"))
    assert written["values"]["fig6.T10.time_average_m"] == {
        "value": 6.0, "band": list(ledger.band_for("", 6.0)), "seed": 1,
    }
    doc = (tmp_path / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "| `fig6.T10.time_average_m` | 6.00 m | 5.40 m – 6.60 m |" in doc
    assert _run_check(monkeypatch, shifted)[0] == 0


def test_apply_blocks_refuses_a_document_without_the_blocks(values):
    with pytest.raises(ValueError, match="marks blocks"):
        ledger.apply_blocks("no markers here\n", ledger.render_blocks(values))
