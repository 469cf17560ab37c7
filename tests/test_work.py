"""Exact work counts of the benchmark's simulation workloads at their tiny
sizes: the keyed streams an ensemble opens, by purpose, and its calls of the
policy and the localizers. A count is exact, where a time needs many runs to
resolve, so a change that does more or less work fails here by name.

The cases are ``perfbench/workloads.py``'s ``circuit-gcpso``,
``circuit-ekf-pool`` and ``town-bootstrap`` at its tiny sizes and seed 1,
rebuilt here and run at ``jobs=1``, so the counts are seen in-process.
``golden/work.json`` holds them.

Regenerate only for an intended change of the work, and give the reason in
CHANGES.md:

    PYTHONPATH=src python tests/test_work.py
"""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from parkcp import harness
from parkcp.channel import CommZone, NoiseModel
from parkcp.harness import Algorithm, RunConfig
from parkcp.policy import PolicyConfig
from parkcp.scenario import ChokePoint, ScenarioConfig, generate

WORK = Path(__file__).resolve().parent / "golden" / "work.json"
SEED = 1
COUNTED = ("ekf_predict", "ekf_update", "gcpso_localize", "select_neighbors",
           "classify_stationary", "trilaterate", "bilaterate_with_prior")


def _tiny_town() -> ScenarioConfig:
    """The benchmark's tiny town: 8 moving, 2 entering and 16 parked cars on
    200 x 160 m for 60 steps, with two choke points placed from the seed."""
    rng = np.random.default_rng([SEED, 1])
    chokes = tuple(ChokePoint(float(rng.uniform(0.2, 0.8) * 200.0),
                              float(rng.uniform(0.2, 0.8) * 160.0), 5.0, 20) for _ in range(2))
    return ScenarioConfig(seed=SEED, kind="town", duration=60, area=(0.0, 0.0, 200.0, 160.0),
                          n_moving=8, n_entering=2, n_parked=16, choke_points=chokes)


def cases() -> dict[str, RunConfig]:
    circuit = ScenarioConfig(seed=SEED, kind="circuit", duration=40)
    noise = NoiseModel(range_std=4.0)
    return {
        "circuit-gcpso": RunConfig(Algorithm.GCPSO, circuit, CommZone(15.0), noise,
                                   n_runs=1, seed=SEED),
        "circuit-ekf": RunConfig(Algorithm.EKF, circuit, CommZone(100.0), noise,
                                 n_runs=2, seed=SEED),
        "town-bootstrap": RunConfig(Algorithm.EKF, _tiny_town(), CommZone(15.0), noise,
                                    PolicyConfig(anchors_preloaded=False), n_runs=1, seed=SEED),
    }


def count(cfg: RunConfig, monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """The streams opened by purpose ("substream.<purpose>") and the calls
    of each ``COUNTED`` function in one ``ensemble`` of ``cfg`` at jobs=1."""
    counts: Counter = Counter()
    real_stream = harness.substream

    def stream_spy(*args):
        counts["substream." + args[4]] += 1
        return real_stream(*args)

    def counting(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(harness, "substream", stream_spy)
    for name in COUNTED:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    records = generate(cfg.scenario)
    harness.ensemble(cfg, records, jobs=1)
    return {name: counts[name] for name in
            [f"substream.{p}" for p in harness._PURPOSES] + list(COUNTED)}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(WORK.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(cases()))
def test_work_counts_match_golden(case, pinned, monkeypatch):
    got, want = count(cases()[case], monkeypatch), pinned[case]
    moved = [f"{case}: {name} {got.get(name)} != pinned {want.get(name)}"
             for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        work = {}
        for case, cfg in cases().items():
            work[case] = count(cfg, mp)
            mp.undo()
    WORK.write_text(json.dumps(work, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {WORK}")
