"""Smoke test of the ledger benchmark (not part of tier-1; run explicitly).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

One ``--smoke`` run of the whole ledger (every workload at ~1/10 size,
untraced then traced) is shared by the tests below.
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as _fp:
    BENCHMARK = json.load(_fp)

METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.e+-]+|nan|inf) (\S+)")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seconds", "1", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    return out, done.stdout


def printed_metrics(stdout):
    """{(workload, 'end to end' | 'traced pass'): {metric name: unit}}."""
    sections, current = {}, None
    for line in stdout.splitlines():
        head = re.match(r"^== (\S+) seed=\d+ (end to end|traced pass)", line)
        if head:
            current = sections.setdefault(head.groups(), {})
        elif current is not None and (m := METRIC_LINE.match(line)):
            current[m.group(1)] = m.group(3)
    return sections


def test_every_metric_is_printed_with_its_unit(smoke):
    _, stdout = smoke
    sections = printed_metrics(stdout)
    for workload in BENCHMARK["workloads"]:
        for kind, key in (("end to end", "end_to_end"), ("traced pass", "per_layer")):
            printed = sections[(workload["name"], kind)]
            for metric in BENCHMARK[key]:
                assert printed.get(metric["name"]) == metric["unit"], (
                    workload["name"], metric["name"], printed.get(metric["name"]),
                )
            assert printed["failed_frac"] == "ratio"


def test_names_and_layer_table_agree():
    sys.path.insert(0, HERE)
    try:
        from layers import LAYER_METRICS
    finally:
        sys.path.remove(HERE)
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert listed == LAYER_METRICS
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in BENCHMARK[group]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", item["name"])


def test_stopwatch_scales_a_unit_by_the_host_speed_around_it(monkeypatch):
    sys.path.insert(0, HERE)
    try:
        import host
    finally:
        sys.path.remove(HERE)
    readings = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(host, "slowness", lambda: next(readings))
    monkeypatch.setattr(host, "FRESH_S", 60.0)  # the test is not timing-bound
    clock = host.Stopwatch()
    out, raw, ref = clock.time(lambda: "done")
    assert out == "done" and ref == pytest.approx(raw / 1.5)
    # the reading after one unit is the reading before the next
    assert clock.stop(clock.start(), 9.0) == pytest.approx(9.0 / 3.0)
    assert clock.samples == [1.0, 2.0, 4.0]


def test_span_parent_links_form_a_tree(smoke):
    out, _ = smoke
    for workload in BENCHMARK["workloads"]:
        with open(out / f"{workload['name']}.spans.json") as fp:
            spans = json.load(fp)["spans"]
        assert spans, workload["name"]
        for i, span in enumerate(spans):
            assert span["id"] == i
            parent = span["parent"]
            if parent is None:
                continue
            # a parent opened earlier and closed later: no cycles, one root path
            assert parent < i
            assert spans[parent]["start"] <= span["start"]
            assert span["end"] <= spans[parent]["end"]
            assert spans[parent]["run_id"] == span["run_id"]


def test_compare_flags_regressions_and_digest_changes(smoke, tmp_path):
    out, _ = smoke
    with open(out / "ledger.json") as fp:
        ledger = json.load(fp)

    def compare(changed):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(changed))
        return subprocess.run(
            [sys.executable, RUN, "compare", str(out / "ledger.json"), str(path)],
            stdout=subprocess.PIPE, text=True,
        )

    same = compare(ledger)
    assert same.returncode == 0, same.stdout
    assert "REGRESSION" not in same.stdout

    slower = copy.deepcopy(ledger)
    wall = slower["workloads"]["lane_sweep_8x8"]["end_to_end"]["wall_s"]
    for key in ("value", "min", "max"):
        wall[key] *= 2
    assert compare(slower).returncode == 1

    drifted = copy.deepcopy(ledger)
    drifted["workloads"]["campaign_4x4"]["sim_digest"] = "0" * 64
    done = compare(drifted)
    assert done.returncode == 1 and "sim_digest differs" in done.stdout
