#!/usr/bin/env python3
"""Detection error rate vs frame-rate floor, formula beside simulation.

Sweeps the camera's mean rate of the ``table5_v2`` link downward past the
detection guarantee boundary (a quarter of the packet rate) and reports
the closed-form DER next to the Monte-Carlo estimate for each point.
"""

from dataclasses import replace
from pathlib import Path

from occsim.analysis import monte_carlo_der
from occsim.cli import write_der_csv
from occsim.configs import PRESETS

RESULTS = Path(__file__).resolve().parent.parent / "results"

FPS_POINTS = [(12.0, 7.0), (8.0, 2.5), (6.0, 1.5), (4.5, 1.0), (3.5, 0.5)]
TRIALS = 2000
SEED = 101


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "der_study.csv"
    estimates = []
    for mean_fps, delta_fps in FPS_POINTS:
        config = replace(PRESETS["table5_v2"], mean_fps=mean_fps,
                         delta_fps=delta_fps, seed=SEED, trials=TRIALS)
        est = monte_carlo_der(config, SEED)
        estimates.append(est)
        print(f"floor {est.fps_floor:5.1f} fps: formula "
              f"{float(est.der_formula):.3e}  empirical "
              f"{est.der_empirical:.3e} "
              f"[{est.ci_low:.3e}, {est.ci_high:.3e}]")
    write_der_csv(out, estimates)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
