#!/usr/bin/env python3
"""Full density-vs-PDE validation sweep for the three worked models.

Writes out/validate_<model>.json plus companion *_curves.csv files and
prints a one-line summary per case.  Takes about 1.6 s on 2 CPUs.
"""

import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# runs from a plain checkout: fpt is imported from its src/
sys.path.insert(0, str(ROOT / "src"))

from fpt.cli import main  # noqa: E402

# relative to ROOT, so the `# config:` header records the same "out" path
# in every checkout
OUT = pathlib.Path("out")

MODELS = [
    (["--model", "ou"], "validate_ou.json"),
    (["--model", "tanh", "--alpha", "2.0", "--gamma", "1.0"], "validate_tanh.json"),
    (["--model", "dry_friction", "--mu", "1.0"], "validate_dry_friction.json"),
]

if __name__ == "__main__":
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    for args, fname in MODELS:
        target = OUT / fname
        code = main(["validate", *args, "--barriers=-1,1,2", "--offsets=1,2,4",
                     "--out", str(target)])
        if code != 0:
            sys.exit(code)
        report = json.loads(target.read_text())
        for case in report["cases"]:
            if case["status"] == "ok":
                print(f"{report['model']:13s} y+={case['y_plus']:+.1f} "
                      f"y0={case['y0']:+.1f}  L1={case['l1']:.4f}  "
                      f"tail-slope err={case['tail_slope_error']:.2e}")
            else:
                print(f"{report['model']:13s} y+={case['y_plus']:+.1f} "
                      f"y0={case['y0']:+.1f}  FAILED: {case['error']}")
        print(f"wrote {target}")
