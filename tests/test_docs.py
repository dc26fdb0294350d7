"""The README's examples run as printed: its Python blocks, and the conic
session with the report the README shows for it."""

import contextlib
import io
import re
from pathlib import Path

from gradedchi.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks():
    """(info string, body) of every fenced code block in the README, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run_and_print_their_comments():
    blocks = [body for info, body in _blocks() if info == "python"]
    assert len(blocks) == 2
    # the second block goes on from the first one's names, as a reader would
    namespace: dict = {}
    expected = []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for body in blocks:
            exec(compile(body, str(README), "exec"), namespace)
            expected += [
                m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", body, re.M)
            ]
    assert expected and out.getvalue().splitlines() == expected


def test_readme_cli_example_prints_its_report(tmp_path, capsys):
    blocks = [body for _, body in _blocks()]
    shown = next(i for i, body in enumerate(blocks) if body.startswith("$ gradedchi conic.session\n"))
    session = tmp_path / "conic.session"
    session.write_text(blocks[shown - 1])
    assert main([str(session)]) == 0
    report = blocks[shown].split("\n", 1)[1]
    assert capsys.readouterr().out == report
