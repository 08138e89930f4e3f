import pytest

from satd_forge.atomic import atomic_write


def test_success_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_write(path) as f:
        f.write("new é")
    assert path.read_text(encoding="utf-8") == "new é"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_binary(tmp_path):
    path = tmp_path / "out.bin"
    with atomic_write(path, binary=True) as f:
        f.write(b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_interrupted_write_keeps_old_file_and_no_temp(tmp_path, exc):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(exc):
        with atomic_write(path) as f:
            f.write("partial")
            raise exc()
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_interrupted_first_write_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.txt") as f:
            f.write("partial")
            raise RuntimeError
    assert list(tmp_path.iterdir()) == []


def test_keeps_permissions_and_writes_through_symlinks(tmp_path):
    target = tmp_path / "data" / "corpus.jsonl"
    target.parent.mkdir()
    target.write_text("old")
    target.chmod(0o600)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    with atomic_write(link) as f:
        f.write("new")
    assert link.is_symlink()
    assert target.read_text() == "new"
    assert target.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in target.parent.iterdir()) == ["corpus.jsonl"]
