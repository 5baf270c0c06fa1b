"""Replay the README's CLI block: scripts/make_inputs.py writes the inputs,
then every command runs through ``cli.main`` on them and must exit 0 with
nothing on stderr. Its stdout and every file it writes must equal, byte for
byte, the transcript committed under tests/readme_transcript/; after a
change that moves a printed digit, regenerate that transcript with
``PYTHONPATH=src python tests/test_readme.py`` and review its diff. The
inputs themselves must hold the reference values, and every option the
README names must exist."""
import argparse
import ast
import io
import os
import re
import runpy
import shlex
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from magictrap.acceptance import MEASURED_COEFFS, reference_transfer_timeline
from magictrap.cli import build_parser, main
from magictrap.datafiles import read_coefficients, read_dls_csv, read_timeline
from magictrap.fitting import fit_dls_global

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = ROOT / "tests" / "readme_transcript"


def run_script(path, outdir, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [path, *args, "--outdir", str(outdir)])
    runpy.run_path(str(ROOT / path), run_name="__main__")


def readme_cli_block():
    """The commands of the first fenced block under '## CLI', one argv per
    command, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def replay(workdir):
    """Run the README block as written in `workdir`: the stdout of every
    command, each after a `$ command` line, and the (command, exit code,
    stderr) of each. `selftest` is skipped; tests/test_acceptance.py runs
    the same checks."""
    transcript, runs = [], []
    cwd, argv0 = os.getcwd(), sys.argv
    os.chdir(workdir)
    try:
        for argv in readme_cli_block():
            if argv[1:] == ["selftest"]:
                continue
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                if argv[0] == "python":
                    sys.argv = argv[1:]
                    runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
                    code = 0
                else:
                    assert argv[0] == "magictrap"
                    code = main(argv[1:])
            transcript.append(f"$ {shlex.join(argv)}\n{out.getvalue()}")
            runs.append((shlex.join(argv), code, err.getvalue()))
    finally:
        os.chdir(cwd)
        sys.argv = argv0
    return "".join(transcript), runs


def files_under(path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*") if p.is_file())


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("readme")
    return workdir / "out", *replay(workdir)


def test_readme_cli_block_runs(replayed):
    _, _, runs = replayed
    assert runs[0][0] == "python scripts/make_inputs.py"
    for command, code, err in runs:
        assert (code, err) == (0, ""), command


def test_readme_stdout_matches_the_transcript(replayed):
    _, stdout, _ = replayed
    assert stdout == (TRANSCRIPT / "stdout.txt").read_text(encoding="utf-8")


def test_readme_artifacts_match_the_transcript(replayed):
    outdir, _, _ = replayed
    committed = TRANSCRIPT / "artifacts"
    assert files_under(outdir) == files_under(committed)
    for name in files_under(outdir):
        assert (outdir / name).read_bytes() == (committed / name).read_bytes(), name


def test_make_inputs_hold_the_reference_values(tmp_path, monkeypatch):
    run_script("scripts/make_inputs.py", tmp_path, monkeypatch)
    assert read_coefficients(tmp_path / "measured_coeffs.toml") == MEASURED_COEFFS
    assert (read_timeline(tmp_path / "transfer_timeline.json", MEASURED_COEFFS)
            == reference_transfer_timeline())
    # the shift table is exact model output, so the fit returns the model
    fit = fit_dls_global(read_dls_csv(tmp_path / "dls_landscape.csv"),
                         beta1_fixed=3.47e-4)
    assert fit.parameters["beta2"] == pytest.approx(-0.99e-4, rel=1e-9)
    assert fit.parameters["beta4"] == pytest.approx(4.6e-12, rel=1e-9)


def parser_options(parser):
    """Every option string of `parser` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
    return options


def script_options(path):
    """The option strings a script passes to add_argument."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", "") == "add_argument"]
    return {arg.value for call in calls for arg in call.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")}


def test_readme_names_only_existing_options():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    known = parser_options(build_parser()) | script_options("scripts/make_inputs.py")
    assert "--outdir" in known and "--post-temp-uk" in known
    assert named and named <= known, sorted(named - known)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        stdout, runs = replay(Path(tmp))
        for command, code, err in runs:
            if (code, err) != (0, ""):
                sys.exit(f"{command}: exit {code}\n{err}")
        shutil.rmtree(TRANSCRIPT, ignore_errors=True)
        shutil.copytree(Path(tmp) / "out", TRANSCRIPT / "artifacts")
        (TRANSCRIPT / "stdout.txt").write_text(stdout, encoding="utf-8")
