"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The file name keeps these tests out of the
repository's own test run.  Conic-oracle blocks are trimmed to their shallow
requests so that the whole file takes well under a minute.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SERIES_ORACLE = [m for m, _ in tracing.METRICS
                 if m.startswith(("series.", "oracle.")) and m.endswith(("_calls", "valuations"))]
REWRITE = ["rewrite.raise_calls", "rewrite.lower_calls", "rewrite.trace_entries"]


@pytest.fixture()
def paths(tmp_path):
    return inputs.write_fixtures(str(tmp_path))


def small_blocks(wl, seed, count=1):
    blocks = [wl.block(seed, i) for i in range(count)]
    if wl.name == "conic-oracle":
        # only requests whose value is below 16, answered at the initial precision
        blocks = [[r for r in b if r.kind == "example-conic" or
                   (r.expect[0] == 0 and int(r.expect[1]) < 16)] for b in blocks]
    if wl.name == "izumi-search":
        blocks = [[r for r in b if r.expect[1] < workloads.IZUMI_LARGE][:6] for b in blocks]
    return blocks


def make(name, paths):
    wl = workloads.WORKLOADS[name]()
    wl.setup(paths)
    return wl


def traced_counts(name, paths, seed):
    wl = make(name, paths)
    outcome = run.Outcome()
    tracer, _, _ = run.trace_blocks(wl, small_blocks(wl, seed), outcome)
    assert outcome.failed == 0, outcome.errors
    metrics = tracer.metrics(1.0)
    return {m: metrics[m]["value"] for m in tracing.EXACT_COUNTS}


def describe(block):
    return [(r.kind, r.argv, r.poly, r.expect) for r in block]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, paths):
    a, b = make(name, paths), make(name, paths)
    for i in range(3):
        assert describe(a.block(7, i)) == describe(b.block(7, i))
    assert describe(a.block(7, 0)) != describe(a.block(8, 0))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_counts(name, paths):
    first = traced_counts(name, paths, 3)
    assert first == traced_counts(name, paths, 3)
    assert first["cli.requests"] + first["keybasis.expand_calls"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_seeds_pass_every_check(name, paths):
    wl = make(name, paths)
    outcome = run.Outcome()
    run.run_blocks(wl, small_blocks(wl, 12345, count=2), outcome)
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.errors


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_map(name, paths):
    counts = traced_counts(name, paths, 5)
    if name == "conic-oracle":
        assert all(counts[m] > 0 for m in ("oracle.valuations", "series.mul_calls"))
    else:
        assert all(counts[m] == 0 for m in SERIES_ORACLE), counts
    if name in ("conic-oracle", "izumi-search"):
        assert all(counts[m] == 0 for m in REWRITE), counts
    if name == "rewrite-roundtrip":
        assert counts["rewrite.raise_calls"] > 0 and counts["cli.requests"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, paths):
    wl = make(name, paths)
    reqs = small_blocks(wl, 9)[0]
    plain = [wl.execute(r) for r in reqs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [wl.execute(r) for r in reqs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sum(tracer.count.values()) > 0


def test_tracer_patches_by_name_imports():
    import keyval.cli
    import keyval.keybasis
    import keyval.oracle
    import keyval.series

    originals = (keyval.cli.adic_expand, keyval.oracle.series_div_unit)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert keyval.cli.adic_expand is keyval.keybasis.adic_expand
        assert keyval.oracle.series_div_unit is keyval.series.series_div_unit
        assert keyval.cli.adic_expand is not originals[0]
        assert keyval.series.Series.__rmul__ is keyval.series.Series.__mul__
    finally:
        tracer.uninstall()
    assert (keyval.cli.adic_expand, keyval.oracle.series_div_unit) == originals


def test_mul_coeff_pairs_matches_the_double_loop():
    for la in range(0, 7):
        for lb in range(0, 7):
            for p in range(0, 12):
                want = sum(1 for i in range(min(la, p)) for j in range(lb) if i + j < p)
                assert tracing.mul_coeff_pairs(la, lb, p) == want


def test_conic_branch_squares_to_the_defining_polynomial():
    # phi = -y*sqrt(1+y) is a root of x^2 - y^2 - y^3: phi^2 = y^2 + y^3
    n = 40
    phi = inputs.conic_branch(n)
    square = [sum(phi[i] * phi[m - i] for i in range(m + 1)) for m in range(n)]
    assert square == [0, 0, 1, 1] + [0] * (n - 4)
    assert phi[1] == -1 and all(c != 0 for c in phi[1:])


def test_refuses_to_run_without_sources(tmp_path):
    import subprocess

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-requests",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.METRICS
    printed = run.end_to_end([0.001, 0.002, 0.003], 0.1)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, m["unit"]) for name, m in printed.items()]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
