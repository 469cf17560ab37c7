#!/usr/bin/env python3
"""Parked-car density sweep: how the improvement grows with the number of
parked cars experienced per travelled kilometer.
"""
import argparse
from dataclasses import replace

from parkcp.channel import CommZone, NoiseModel
from parkcp.harness import Algorithm, RunConfig, ensemble
from parkcp.scenario import ScenarioConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n-runs", type=int, default=20)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--sigma-r", type=float, default=0.2)
    ap.add_argument("--out", default="density_sweep.csv")
    args = ap.parse_args()

    base = ScenarioConfig(kind="circuit", duration=240, seed=args.seed)
    lines = ["n_parked,encountered_per_km,travelled_km,improvement_pct"]
    print(f"{'n_parked':>9} {'per_km':>8} {'travelled':>10} {'improvement':>12}")
    for n_parked in (2, 4, 8, 16, 32):
        scenario = replace(base, n_parked=n_parked, parked_spacing=480.0 / n_parked)
        cfg = RunConfig(
            algorithm=Algorithm.EKF,
            scenario=scenario,
            zone=CommZone(15.0),
            noise=NoiseModel(range_std=args.sigma_r),
            n_runs=args.n_runs,
            seed=args.seed,
        )
        v = ensemble(cfg, jobs=args.jobs).vehicles[0]
        per_km = v.parked_encountered / v.travelled_km
        print(f"{n_parked:>9} {per_km:>8.2f} {v.travelled_km:>10.2f} "
              f"{v.average_improvement:>11.2f}%")
        lines.append(
            f"{n_parked},{per_km:.4f},{v.travelled_km:.4f},{v.average_improvement:.4f}"
        )

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
