"""Replay recorded CLI requests through the installed ``keyval`` console script.

    python3 tests/replay_cli.py

Takes the first argv, in sorted order, of each (subcommand, basis, --json,
exit code) class of ``perfbench/expected_cli.json``, runs ``keyval`` on it
in a subprocess, and compares its stdout and exit code with the record.
Exits 1 naming the first argv that differs.  It needs keyval and the
standard library only, so it runs before the test extras are installed.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import inputs  # noqa: E402
import workloads  # noqa: E402


def first_of_each_class(expected):
    """The first key, in sorted order, of each (subcommand, basis, --json, exit code)."""
    firsts = {}
    for key in sorted(expected):
        argv = key.split("\x1f")
        basis = argv[argv.index("--basis") + 1] if "--basis" in argv else None
        firsts.setdefault((argv[0], basis, "--json" in argv, expected[key][0]), key)
    return sorted(firsts.values())


def main():
    with open(workloads.EXPECTED_CLI) as fh:
        expected = json.load(fh)
    keys = first_of_each_class(expected)
    with tempfile.TemporaryDirectory() as work:
        paths = inputs.write_fixtures(work)
        for key in keys:
            argv = workloads.with_paths(key.split("\x1f"), paths)
            run = subprocess.run(["keyval", *argv], capture_output=True, text=True)
            if [run.returncode, run.stdout] != expected[key]:
                print("differs from the record: keyval " + shlex.join(argv))
                return 1
    print("%d recorded requests replayed" % len(keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
