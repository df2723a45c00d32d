#!/usr/bin/env python3
"""Reproduce the exact-vs-estimated OU decay-rate table.

Writes out/table1.csv (exact parabolic-cylinder zeros side by side with
the accelerated ratio-sequence estimates) and prints it.
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

if __name__ == "__main__":
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    target = OUT / "table1.csv"
    code = main(["table1", "--out", str(target)])
    if code == 0:
        print(target.read_text())
        print(f"wrote {target}")
    sys.exit(code)
