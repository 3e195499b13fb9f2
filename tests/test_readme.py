import json
import re
import shlex
from pathlib import Path

from keyval import cli

import cli_cases

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1].split("## Library", 1)[0]
    basis, param = re.findall(r"```json\n(.*?)```", section, re.S)
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    monkeypatch.chdir(tmp_path)
    Path("b1.json").write_text(basis)
    Path("conic.json").write_text(param)
    Path("b2.json").write_text(json.dumps(cli_cases.BASES["b2"]))
    assert commands
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "keyval"
        assert cli.main(argv[1:]) == 0, line
        assert capsys.readouterr().out.strip(), line
