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
