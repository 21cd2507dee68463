"""The code-line counter behind the line counts the change log cites."""

import textwrap

import code_lines

SAMPLE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import math  # a trailing comment keeps its line

    # a comment line


    class Box:
        """Class docstring."""

        size = 1


    def area(r):
        """Function docstring,

        over three lines.
        """
        text = """a string that is
        not a docstring"""
        return math.pi * (
            r * r
        )
    '''
)


def test_counts_code_lines_only():
    # import, class, size, def, two text lines, three return lines
    assert code_lines.count_code_lines(SAMPLE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["9", "1", "10"]


def test_against_prints_both_trees_and_the_difference(tmp_path, capsys, monkeypatch):
    # a module in both trees, one only in the new tree and one only in the old
    old, new = tmp_path / "old", tmp_path / "new"
    for root, files in ((old, {"a.py": SAMPLE, "gone.py": "x = 1\ny = 2\n"}), (new, {"a.py": "x = 1\n", "b.py": SAMPLE})):
        (root / "pkg").mkdir(parents=True)
        for name, text in files.items():
            (root / "pkg" / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(new)
    assert code_lines.main(["--against", str(old), "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["before", "after", "diff", "module"],
        ["9", "1", "-8", "pkg/a.py"],
        ["0", "9", "+9", "pkg/b.py"],
        ["2", "0", "-2", "pkg/gone.py"],
        ["11", "10", "-1", "total"],
    ]
