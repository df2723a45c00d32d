#!/usr/bin/env python3
"""Decay-rate sweeps for the three worked models (the barrier-position
curves with asymptotes and orthogonal-polynomial markers).

Writes out/fig1_{ou,dry_friction,tanh}.csv.
"""

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

SWEEPS = [
    (["--model", "ou", "--sweep=-3:3:25"], "fig1_ou.csv"),
    (["--model", "dry_friction", "--mu", "1.0", "--sweep=-2:4:25"],
     "fig1_dry_friction.csv"),
    (["--model", "tanh", "--alpha", "2.0", "--gamma", "1.0",
      "--sweep=-3:3:25"], "fig1_tanh.csv"),
]

if __name__ == "__main__":
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    for args, fname in SWEEPS:
        target = OUT / fname
        code = main(["fig1", *args, "--out", str(target)])
        if code != 0:
            sys.exit(code)
        print(f"wrote {target}")
