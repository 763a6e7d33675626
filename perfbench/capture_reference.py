"""Capture the seed-0 reference rows that workload.py checks against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Runs the default rescaled, physical and corrections-2 sweeps and writes
their rows (epsilon, error, dt, n) and fitted slopes to
reference_seed0.json.  Run it on the commit whose numbers are the
reference, never to make a failing check pass.
"""

import json
from pathlib import Path

from semihartree import parse_config, run_sweep

from workload import config_text

# seed-0 workloads with one mode each; rescaled-jobs2 shares the rescaled rows
MODES = ("rescaled", "physical", "corrections-2")


def main() -> None:
    out = {}
    for mode in MODES:
        report = run_sweep(parse_config(config_text(mode, 0)))
        out[mode] = {
            "slope": report.fitted_slope,
            "rows": [{"epsilon": r.epsilon, "error": r.error, "dt": r.dt_used, "n": r.n_used}
                     for r in report.rows],
        }
        print(mode, out[mode]["slope"])
    path = Path(__file__).resolve().parent / "reference_seed0.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
