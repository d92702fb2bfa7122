"""CLI tests for the durability verbs: ``repro resume`` and ``repro verify``."""

import pytest

from repro.cli import main
from repro.datamodel.popularity import PopularityVector
from repro.datamodel.store import VideoStore
from repro.datamodel.video import Video
from repro.durability import artifacts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A completed tiny-preset resumable pipeline run."""
    path = tmp_path_factory.mktemp("cli_workdir")
    assert main(["resume", "--workdir", str(path), "--preset", "tiny"]) == 0
    return path


class TestResumeCommand:
    def test_first_run_reports_stats(self, workdir, capsys):
        # workdir fixture already ran; re-run and capture this one.
        assert (
            main(["resume", "--workdir", str(workdir), "--preset", "tiny"]) == 0
        )
        out = capsys.readouterr().out
        assert "pipeline complete" in out
        assert "skipped (already durable)" in out
        assert "universe, crawl, filter, reconstruct" in out

    def test_mismatched_preset_fails_loudly(self, workdir, capsys):
        rc = main(["resume", "--workdir", str(workdir), "--preset", "small"])
        assert rc == 2
        assert "different pipeline config" in capsys.readouterr().err


class TestVerifyCommand:
    def test_clean_workdir_verifies(self, workdir, capsys):
        assert main(["verify", "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "crawl.jsonl" in out
        # The columnar store is verified file by file.
        for name in ("meta.json", "pop.bin", "tags.bin", "indices.bin"):
            assert str(workdir / "columnar" / name) in out

    def test_bit_flip_detected_and_quarantined(self, workdir, capsys):
        target = workdir / "tag_views.json"
        blob = bytearray(target.read_bytes())
        blob[10] ^= 0x20
        target.write_bytes(bytes(blob))

        rc = main(["verify", "--workdir", str(workdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "CORRUPT" in captured.err
        assert str(target) in captured.err
        assert "tag_views.json.quarantined" in captured.err
        assert not target.exists()
        # Put the stage back for other tests: resume recomputes it.
        assert (
            main(["resume", "--workdir", str(workdir), "--preset", "tiny"]) == 0
        )

    def test_no_quarantine_flag_leaves_file(self, tmp_path, capsys):
        path = tmp_path / "a.bin"
        artifacts.atomic_write_bytes(path, b"good", checksum=True)
        path.write_bytes(b"evil")
        rc = main(["verify", "--no-quarantine", str(path)])
        assert rc == 1
        assert path.exists()
        assert "CORRUPT" in capsys.readouterr().err

    def test_explicit_paths(self, tmp_path, capsys):
        path = tmp_path / "a.bin"
        artifacts.atomic_write_bytes(path, b"good", checksum=True)
        assert main(["verify", str(path)]) == 0

    def test_nothing_to_verify_is_an_error(self, capsys):
        assert main(["verify"]) == 2
        assert "nothing to verify" in capsys.readouterr().err

    def test_store_integrity_clean_and_corrupt(self, tmp_path, capsys):
        db = tmp_path / "videos.db"
        with VideoStore(db) as store:
            store.add_many(
                [
                    Video(
                        video_id=f"AAAAAAAA{i:03d}",
                        title="t",
                        uploader="u",
                        upload_date="2011-01-01",
                        views=i,
                        tags=("a",),
                        popularity=PopularityVector({"US": 61}),
                        related_ids=(),
                    )
                    for i in range(300)
                ]
            )
        assert main(["verify", "--store", str(db)]) == 0
        capsys.readouterr()

        blob = bytearray(db.read_bytes())
        middle = (len(blob) // 8192) // 2 * 8192
        blob[middle : middle + 4096] = b"\0" * 4096
        db.write_bytes(bytes(blob))
        rc = main(["verify", "--store", str(db)])
        assert rc == 1
        assert "CORRUPT" in capsys.readouterr().err
