"""The README's quickstart and CLI examples run as written."""

import shlex
from pathlib import Path

from oriham.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(info):
    """Bodies of the README's fenced code blocks opened with ```<info>."""
    blocks, body, tag = [], None, None
    for line in README.read_text().splitlines():
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, tag = [], line[3:].strip()
        else:
            if tag == info:
                blocks.append("\n".join(body) + "\n")
            body = None
    return blocks


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (code,) = _blocks("python")
    exec(compile(code, "README quickstart", "exec"), {})
    assert "True" in capsys.readouterr().out.splitlines()


def test_cli_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (spec,) = _blocks("json")
    (tmp_path / "spec.json").write_text(spec)
    lines = [line for block in _blocks("") for line in block.splitlines()
             if line.startswith("oriham ")]
    assert len(lines) == 8
    for line in lines:
        command, _, exit_code = line.partition("#")
        assert main(shlex.split(command)[1:]) == int(exit_code), line
    capsys.readouterr()
    assert (tmp_path / "g.txt.json").exists()
    assert (tmp_path / "report.json").exists()
