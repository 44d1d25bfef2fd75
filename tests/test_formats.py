import pytest

from tablelink import formats


def write_blob(path, body):
    with formats.write_binary(path, b"TEST", "<II", 1, 2) as f:
        f.write(body)


class TestAtomicWrites:
    @pytest.mark.parametrize("write, good, bad", [
        (formats.save_json, {"a": [1, 2]}, {"a": [1, 2], "b": object()}),
        (write_blob, b"old body", "a str is not bytes"),
    ], ids=["save_json", "write_binary"])
    def test_failed_write_leaves_the_earlier_file(self, tmp_path, write, good, bad):
        path = tmp_path / "artifact"
        write(path, good)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
