import pytest

from tablelink import formats
from tablelink.linker import export_links


def write_blob(path, body):
    with formats.write_binary(path, b"TEST", "<II", 1, 2) as f:
        f.write(body)


def write_lines(path, lines):
    with formats.replacing(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line)


def write_links(path, second_ranked):
    export_links({"t1": [("m1", 0.5, 1)], "t2": second_ranked}, path)


class TestAtomicWrites:
    @pytest.mark.parametrize("write, good, bad", [
        (formats.save_json, {"a": [1, 2]}, {"a": [1, 2], "b": object()}),
        (write_blob, b"old body", "a str is not bytes"),
        (write_lines, ["old\n"], ["new first line\n", 7]),  # fails after one line
        (write_links, [("m2", 0.25, 1)], [("m2", None, 1)]),  # fails on the second anchor
    ], ids=["save_json", "write_binary", "replacing", "export_links"])
    def test_failed_write_leaves_the_earlier_file(self, tmp_path, write, good, bad):
        path = tmp_path / "artifact"
        write(path, good)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
