"""Replay the README's CLI block: the scripts write the inputs, then every
command runs through ``cli.main`` on them and must exit 0 with nothing on
stderr."""
import re
import runpy
import shlex
import sys
from pathlib import Path

from magictrap.cli import main

ROOT = Path(__file__).resolve().parents[1]


def readme_cli_block():
    """The commands of the first fenced block under '## CLI', one argv per
    command, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_block()
    assert commands[0][:2] == ["python", "scripts/dls_landscape.py"]
    for argv in commands:
        if argv[0] == "python":
            monkeypatch.setattr(sys, "argv",
                                [argv[1], *argv[2:], "--outdir", str(tmp_path / "out")])
            runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
            code = 0
        elif argv[1:] == ["selftest"]:
            # tests/test_acceptance.py runs the same checks
            continue
        else:
            assert argv[0] == "magictrap"
            code = main(argv[1:])
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), " ".join(argv)
