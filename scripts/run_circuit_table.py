#!/usr/bin/env python3
"""Small-scale circuit experiment: paired RMSE table over both algorithms,
both ranging-noise levels, and both communication zones (15 m and 100 m).

Writes a results CSV and prints the aggregate table.
"""
import argparse
from itertools import product

from parkcp.channel import CommZone, NoiseModel
from parkcp.harness import Algorithm, RunConfig, ensemble, format_results_csv, summary_rows
from parkcp.scenario import ScenarioConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n-runs", type=int, default=40)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default="circuit_table.csv")
    args = ap.parse_args()

    scenario = ScenarioConfig(
        kind="circuit", duration=240, n_parked=20, parked_spacing=24.0,
        seed=args.seed,
    )
    rows = []
    print(f"{'zone':>6} {'algorithm':>10} {'sigma_r':>8} "
          f"{'trad':>7} {'std':>6} {'prop':>7} {'std':>6} {'improvement':>12}")
    for radius, algorithm, sigma in product(
        (15.0, 100.0), (Algorithm.GCPSO, Algorithm.EKF), (0.2, 4.0)
    ):
        cfg = RunConfig(
            algorithm=algorithm,
            scenario=scenario,
            zone=CommZone(radius),
            noise=NoiseModel(range_std=sigma),
            n_runs=args.n_runs,
            seed=args.seed,
        )
        summary = ensemble(cfg, jobs=args.jobs)
        v = summary.vehicles[0]
        print(f"{radius:>6.0f} {algorithm.value:>10} {sigma:>8.1f} "
              f"{v.traditional_mean:>7.2f} {v.traditional_std:>6.2f} "
              f"{v.proposed_mean:>7.2f} {v.proposed_std:>6.2f} "
              f"{v.average_improvement:>11.2f}%")
        rows.extend(summary_rows(summary))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_results_csv(rows))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
