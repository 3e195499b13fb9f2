"""Replay pinned and recorded CLI requests through the installed console script.

    python3 tests/replay_cli.py

Runs every case of ``tests/cli_cases.py``, in text and in --json mode,
through the installed ``keyval`` and through ``python3 -m keyval.cli``, and
the first argv, in sorted order, of each (subcommand, basis, --json, exit
code) class of ``perfbench/expected_cli.json`` through ``keyval``.  Compares
each stdout and exit code with the table or the record, and exits 1 naming
the first argv that differs.  It needs keyval and the standard library only,
so it runs before the test extras are installed.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

import cli_cases

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import inputs  # noqa: E402
import workloads  # noqa: E402

ENTRY_POINTS = (["keyval"], [sys.executable, "-m", "keyval.cli"])


def first_of_each_class(expected):
    """The first key, in sorted order, of each (subcommand, basis, --json, exit code)."""
    firsts = {}
    for key in sorted(expected):
        argv = key.split("\x1f")
        basis = argv[argv.index("--basis") + 1] if "--basis" in argv else None
        firsts.setdefault((argv[0], basis, "--json" in argv, expected[key][0]), key)
    return sorted(firsts.values())


def main():
    if shutil.which("keyval") is None:
        print("the keyval console script is not installed (pip install -e .)")
        return 1
    with open(workloads.EXPECTED_CLI) as fh:
        expected = json.load(fh)
    keys = first_of_each_class(expected)
    with tempfile.TemporaryDirectory() as work:
        paths = inputs.write_fixtures(os.path.join(work, "perfbench"))
        runs = [(["keyval", *workloads.with_paths(key.split("\x1f"), paths)], *expected[key])
                for key in keys]
        case_paths = cli_cases.write_files(work)
        runs += [(entry + argv, code, out)
                 for case in cli_cases.CASES
                 for argv, code, out in cli_cases.runs(case, case_paths)
                 for entry in ENTRY_POINTS]
        for argv, code, out in runs:
            run = subprocess.run(argv, capture_output=True, text=True)
            if [run.returncode, run.stdout] != [code, out]:
                print("differs from the expected output: " + shlex.join(argv))
                return 1
    print("%d recorded requests and %d pinned cases (%d runs) replayed"
          % (len(keys), len(cli_cases.CASES), len(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
