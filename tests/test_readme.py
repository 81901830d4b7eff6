"""The README's examples, run as written: the Python quick start and the
`classes` CLI example on the README's workspace document."""

import ast
import contextlib
import io
import re
from pathlib import Path

from liecross.cli import run_command

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.S)


def block(lang, containing=""):
    """The first fenced block in the README of that language holding text."""
    return next(body for kind, body in BLOCKS if kind == lang and containing in body)


def shown(comment):
    """A regex for a printed line shown in a comment, '...' eliding items."""
    return ".*".join(map(re.escape, comment.strip().split("...")))


def test_python_quick_start():
    code = block("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = re.findall(r"^print\(.*\)\s*#(.*)$", code, re.M)
    assert len(printed) == len(comments) == 2
    for line, comment in zip(printed, comments):
        assert re.fullmatch(shown(comment), line)
    assert printed[0] == "HOM(X_aff, X_aff): 15 objects, 99 arrows"
    classes = ast.literal_eval(printed[1])
    assert classes[0] == [0, 1, 2] and classes[-1] == [6, 7, 8]


def test_classes_example(tmp_path):
    document = tmp_path / "ws.yaml"
    document.write_text(block("yaml"))
    command, expected = block("text", "$ liecross classes").splitlines()[:2]
    argv = command.removeprefix("$ liecross ").split()
    out = io.StringIO()
    code = run_command([str(document) if a == "ws.yaml" else a for a in argv], out=out)
    assert code == 0
    assert out.getvalue() == expected + "\n"
    assert expected == "objects=15 classes=3 sizes=[3,3,9]"
