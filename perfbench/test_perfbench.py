"""Tests of the benchmark itself: probes, cold-state repeatability and the
correctness gate. Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import backlim
from backlim import corpus

import probes
import workloads

COLD_PASS = Path(__file__).resolve().parent / "cold_pass.py"


def test_probe_counts_calls_made_inside_other_modules():
    entry = corpus.build_f8()
    exp = next(e for e in entry.expectations if e.params.get("target") == Fraction(14, 3))
    original = corpus.find_contraction
    tracer = probes.Tracer()
    tracer.install()
    try:
        result = corpus.run_expectation(entry, exp)
    finally:
        tracer.uninstall()
    assert result.ok
    got = tracer.metrics()
    # corpus calls find_contraction and verify_certificate through its own
    # namespace; the backward tree in backlimits calls plmap's point_preimages
    assert got["backlimits.find_contraction.calls"][0] == 1
    assert got["backlimits.find_contraction.hit_ratio"][0] == 1
    assert got["backlimits.verify_certificate.calls"][0] == 1
    assert got["backlimits.salpha_enclosure.calls"][0] == 0
    assert got["plmap.point_preimages.calls"][0] == 2
    assert tracer.internals()["backlimits.tree.levels"][0] == 2
    assert corpus.find_contraction is original


def test_missing_probe_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(backlim.backlimits, "find_exact_tail")
    tracer = probes.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "backlimits.find_exact_tail" in tracer.absent
    assert "backlimits.find_exact_tail.calls" not in tracer.metrics()
    assert "backlimits.find_contraction.calls" in tracer.metrics()


def test_seed_orders_the_population_without_changing_it():
    wl = workloads.GridWorkload()
    first, again, other = wl.inputs(1), wl.inputs(1), wl.inputs(2)
    assert first == again
    assert first != other
    assert sorted(y for _, y in first) == sorted(y for _, y in other) == sorted(wl.population())


def _cold_pass(mode: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(COLD_PASS), "--workload", "analyze", "--seed", "3",
           "--limit", "2", "--mode", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_fresh_passes_repeat_counts_and_digests():
    for mode in ("spans", "profile"):
        first, second = _cold_pass(mode, "1"), _cold_pass(mode, "2")
        assert first["failed"] == second["failed"] == 0
        assert first["digests"] == second["digests"]
        counts = {k: v for k, v in first["layers"].items() if v[1] in ("count", "ratio")}
        assert counts == {k: second["layers"][k] for k in counts}
        assert counts


def test_corrupted_connector_fails_the_gate():
    entry = corpus.build_f5()
    exp = next(e for e in entry.expectations if e.params.get("mechanism") == "contraction")
    wl = workloads.CorpusWorkload()
    wl.begin()
    try:
        result, enclosures = wl.run((entry, exp))
    finally:
        wl.end()
    good = wl.check((entry, exp), (result, enclosures))
    assert good.problems == []

    (y, cert), = result.certs
    assert isinstance(cert, backlim.ContractionCert)
    bad_cert = dataclasses.replace(cert, connector_z=cert.target)
    bad = dataclasses.replace(result, certs=((y, bad_cert),))
    got = wl.check((entry, exp), (bad, enclosures))
    assert got.problems
    # the digest leaves witnesses out, so only the gate can catch this
    assert workloads.digest(got.record) == workloads.digest(good.record)


def test_plain_pass_scales_every_latency_to_the_reference_speed():
    got = _cold_pass("plain", "1")
    assert len(got["scaled_latencies_s"]) == len(got["latencies_s"]) == 2
    assert all(t > 0 for t in got["scaled_latencies_s"])
    assert got["scaled_setup_s"] > 0
    assert got["layers"] == {}
