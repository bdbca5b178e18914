"""``repro-attr --validate``: the reader of profile files on disk lifts
archived documents with ``upgrade_profile`` before validating them."""

import json

from repro.telemetry.cli import main

FIXTURE_V2 = "tests/telemetry/fixtures/profile-v2.json"


def _write_copy(tmp_path, mutate=None):
    with open(FIXTURE_V2) as f:
        doc = json.load(f)
    if mutate is not None:
        mutate(doc)
    (tmp_path / "profile-000-archived.json").write_text(json.dumps(doc))


class TestValidate:
    def test_archived_profile_validates_after_upgrade(self, tmp_path,
                                                      capsys):
        _write_copy(tmp_path)
        assert main([str(tmp_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "valid profile (schema v2, upgraded to v8)" in out

    def test_broken_archived_profile_is_invalid(self, tmp_path, capsys):
        _write_copy(tmp_path, lambda doc: doc.pop("dram"))
        assert main([str(tmp_path), "--validate"]) == 2
        assert "INVALID" in capsys.readouterr().err
