"""Replay the pinned CLI cases through the installed console script.

    python3 tests/replay_cli.py

Runs every case of ``tests/cli_cases.py`` once in text and once in --json
mode through the installed ``keyval``, and the first case of each exit code
whose stderr is pinned through ``python3 -m keyval.cli``.  Compares the exit
code, stdout and pinned stderr of each run with the table, and exits 1 naming
the first argv that differs.  ``cli.main`` itself is replayed in-process by
``test_cli_output_pinned`` and, on the benchmark's recorded requests, by
``tests/test_expected_cli.py``.  It needs keyval and the standard library
only, so it runs before the test extras are installed.
"""

import shlex
import shutil
import subprocess
import sys
import tempfile

import cli_cases


def main():
    if shutil.which("keyval") is None:
        print("the keyval console script is not installed (pip install -e .)")
        return 1
    firsts = {}
    for case in cli_cases.CASES:
        if case.err is not None:
            firsts.setdefault(case.code, case)
    with tempfile.TemporaryDirectory() as work:
        paths = cli_cases.write_files(work)
        runs = [(["keyval", *argv], *pinned)
                for case in cli_cases.CASES
                for argv, *pinned in cli_cases.runs(case, paths)]
        runs += [([sys.executable, "-m", "keyval.cli", *argv], *pinned)
                 for case in firsts.values()
                 for argv, *pinned in cli_cases.runs(case, paths)]
        for argv, code, out, err in runs:
            run = subprocess.run(argv, capture_output=True, text=True)
            got = (run.returncode, run.stdout, None if err is None else run.stderr)
            if got != (code, out, err):
                print("differs from the expected output: " + shlex.join(argv))
                return 1
    print("%d pinned cases (%d runs) replayed" % (len(cli_cases.CASES), len(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
