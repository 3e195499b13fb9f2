"""Record the expected outputs of the cli-requests pool.

    python3 perfbench/record_cli.py

Run from the repository root at the commit whose outputs are the reference;
writes perfbench/expected_cli.json (exit code and stdout of every request in
the pool).  Stderr is not recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.abspath("src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main():
    work = os.path.join(".perfbench_work", "record-%d" % os.getpid())
    try:
        paths = inputs.write_fixtures(work)
        expected = {}
        for kind, entries in workloads.cli_pool().items():
            for argv in entries:
                code, out = workloads.call_cli(workloads.with_paths(argv, paths))
                if (code == 2) != (kind == "malformed"):
                    raise SystemExit("unexpected exit %d for %r" % (code, argv))
                expected[workloads.argv_key(argv)] = [code, out]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_CLI, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d requests" % len(expected))


if __name__ == "__main__":
    main()
