"""Every argv of the benchmark's cli-requests pool replays to its recorded output.

The exit code and stdout of each request are recorded in
``perfbench/expected_cli.json``; this test only reads them.
"""

import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import inputs  # noqa: E402
import workloads  # noqa: E402


def test_cli_pool_replays_the_recorded_outputs(tmp_path):
    paths = inputs.write_fixtures(str(tmp_path))
    with open(workloads.EXPECTED_CLI) as fh:
        expected = json.load(fh)
    # the pool repeats some argv; each distinct one is recorded once
    pool = {workloads.argv_key(argv): argv
            for entries in workloads.cli_pool().values() for argv in entries}
    assert sorted(pool) == sorted(expected)
    differing = [
        argv for key, argv in pool.items()
        if list(workloads.call_cli(workloads.with_paths(argv, paths))) != expected[key]
    ]
    assert not differing, differing[:5]
