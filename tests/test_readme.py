"""The README is the one copy of the CLI examples and of the numbers its
prose states: its ```sh block under "## CLI" is run here line by line
through cli.main, and its >>> examples with doctest.

A block line is either a comment, a `printf '%s\\n' ARG... > FILE` line,
which writes each ARG as a line of FILE, or an `nwtaut` command.  A command
must exit 0 unless it ends in `# exit N`, and one that ends in
`# prints: TEXT` must print TEXT as a whole line of stdout.  A command that
cannot run as written ends in `# illustrative`; at most one may.
"""

import argparse
import doctest
import hashlib
import shlex
from pathlib import Path

from nwtaut import cli
from test_acceptance import TAU_SWEEP_512_SHA256

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block() -> list[list[str]]:
    """The shell words of each command of the sh block under ## CLI, with
    backslash-newlines removed as sh removes them."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```\n", 1)[0]
    lines = block.replace("\\\n", "").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def expectation(words: list[str]) -> tuple[list[str], list[str]]:
    """The command's words and the words of its trailing # comment."""
    i = words.index("#") if "#" in words else len(words)
    return words[:i], words[i + 1:]


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    illustrative, sweep_dirs = 0, []
    for words in cli_block():
        argv, note = expectation(words)
        if argv[0] == "printf":
            assert argv[1] == "%s\\n" and argv[-2] == ">", argv
            Path(argv[-1]).write_text("".join(f"{arg}\n" for arg in argv[2:-2]))
            continue
        assert argv[0] == "nwtaut", argv
        if note == ["illustrative"]:
            illustrative += 1
            continue
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert code == (int(note[1]) if note[:1] == ["exit"] else cli.EXIT_SOLUTION), (words, out)
        if note[:1] == ["prints:"]:
            assert " ".join(note[1:]) in out.splitlines(), (words, out)
        if "--sweep" in argv:
            sweep_dirs.append(argv[argv.index("--outdir") + 1])
    assert illustrative <= 1
    # the sweep writes the benchmark files that the acceptance test pins
    assert len(sweep_dirs) == 1
    digest = hashlib.sha256()
    for path in sorted(Path(sweep_dirs[0]).glob("tau_*.cnf")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TAU_SWEEP_512_SHA256


def test_readme_cli_block_covers_every_command():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tasks = next(a for a in commands.choices["solve"]._actions if a.dest == "task").choices
    run = [argv[1:] for argv, note in map(expectation, cli_block())
           if argv[0] == "nwtaut" and note != ["illustrative"]]
    assert set(commands.choices) <= {argv[0] for argv in run}
    assert set(tasks) <= {argv[argv.index("--task") + 1] for argv in run if argv[0] == "solve"}


def test_readme_numbers():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
