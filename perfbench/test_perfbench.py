"""Self-tests of the benchmark: the tracer's span arithmetic, metric-name
coverage, the failure accounting, and refusal to run without sources.

    python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import subprocess
import sys

import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result


class FakeClock:
    """Advances by a scripted step on each reading."""

    def __init__(self, steps):
        self.now, self.steps = 0.0, iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_tracer_self_times_and_parents():
    # readings: total0, a.start, b.start, c.start, c.end, b.end, c.start,
    # c.end, a.end, total1 -- each step is the time since the last reading
    clock = FakeClock([0, 1, 2, 4, 8, 16, 32, 64, 128, 256])
    tr = tracer.Tracer(clock)

    def c():
        return "c"

    c = tr.spanned("c", c)

    def b():
        return c()

    b = tr.spanned("b", b)

    def a():
        b()
        return c()

    a = tr.spanned("a", a)
    t0 = clock()
    assert a() == "c"
    total = clock() - t0

    names = [tr.names[k] for k in tr.name]
    parents = [names[p] if p != tracer.NO_PARENT else None for p in tr.parent]
    assert names == ["a", "b", "c", "c"]
    assert parents == [None, "a", "b", "a"]
    selfs = tr.self_times()
    # spans: a 1..255, b 3..31, c 7..15, c 63..127
    assert selfs == {"a": 254 - 28 - 64 + 0.0, "b": 28 - 8 + 0.0, "c": 8 + 64 + 0.0}
    untraced = total - tr.root_total()
    assert sum(selfs.values()) + untraced == total
    assert tr.calls() == {"a": 1, "b": 1, "c": 2}

    tr.reset()
    assert tr.calls() == {"a": 0, "b": 0, "c": 0}
    clock.steps = iter([1, 1])
    c()
    assert tr.calls()["c"] == 1


def test_coverage_map_names_every_wrapped_function():
    spec = load_spec()
    prefixes = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"trace"}
    assert prefixes == set(workloads.COVERAGE)
    names = {w["name"] for w in spec["workloads"]}
    assert set(workloads.COVERAGE.values()) <= names
    assert names == set(workloads.WORKLOADS)


def test_references_cover_every_invocation():
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)["digests"]
    for templates in workloads.WORKLOADS.values():
        for t in templates:
            assert t in refs, t


def test_usage_error_counts_as_failed_and_timed():
    rc, result = run_bench("--workload", "usage_error", "--seed", "0",
                           "--seconds", "0.5", "--trace", "0")
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] == 2 * result["failed"]
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    with open(os.path.join(HERE, "out", "usage_error-seed0-trace0.json")) as fh:
        detail = json.load(fh)
    bad = [r for p in detail["passes"] for r in p["invocations"] if r["problem"]]
    assert bad and all(r["rc"] == 2 and r["seconds"] > 0 for r in bad)


def test_traced_run_emits_every_per_layer_metric():
    rc, result = run_bench("--workload", "usage_error", "--seed", "0",
                           "--seconds", "0.5", "--trace", "1")
    assert rc != 0 and result["failed"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in load_spec()["per_layer"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, result = run_bench("--workload", "algebra", "--seed", "0",
                           "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert rc != 0 and result is None


def test_speed_probe_accounts_for_its_own_time():
    a, b, c = 2.0 ** -6, 2.0 ** -8, 2.0 ** -7  # exact in binary
    probe = speed.SpeedProbe(FakeClock([1, a, 1, b, 1, c]))
    for _ in range(3):
        probe.sample()
    assert probe.samples == [a, b, c]
    assert probe.spent == a + b + c
    assert probe.factor() == speed.NOMINAL_S / c
    probe._busy = True  # a timer tick during a sample is skipped
    probe.sample()
    assert len(probe.samples) == 3
