"""The README's quickstart and CLI examples run as written, and its
table of sweep keys is the CLI's."""

import json
import shlex
from pathlib import Path

from oriham.cli import _SWEEPS, main

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


def test_sweep_key_table_matches_the_cli():
    """The README's table of sweep keys lists, in order, every key of
    every kind in ``cli._SWEEPS`` with its default."""
    lines = README.read_text().splitlines()
    start = lines.index("| kind | key | default |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    assert rows == [(kind, key, "required" if default is None else json.dumps(default))
                    for kind, (_, keys) in _SWEEPS.items() for key, default in keys.items()]
