"""Regenerate the stored reference outputs the budget and sweep checks
compare against: reference/budget_diag.csv and reference/sweep.csv.

    python3 perfbench/make_reference.py

Run it only on a commit whose numbers are trusted; the files in the
repository were made from the commit that introduced the benchmark.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import CONFIGS, REFERENCE, call_cli


def main():
    run.import_lcflow()
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        tmp = Path(tmp)
        code, text, err, _ = call_cli(
            ["simulate", "--config", CONFIGS / "budget.cfg",
             "--diag-out", tmp / "budget_diag.csv"])
        if code != 0 or err:
            sys.exit(f"simulate failed: {err or text}")
        code, text, err, _ = call_cli(
            ["sweep", "--config", CONFIGS / "sweep.cfg", "--out", tmp,
             "--jobs", "2"])
        if code != 0 or err:
            sys.exit(f"sweep failed: {err or text}")
        REFERENCE.mkdir(exist_ok=True)
        for name in ("budget_diag.csv", "sweep.csv"):
            shutil.copyfile(tmp / name, REFERENCE / name)
            print(f"wrote {REFERENCE / name}")


if __name__ == "__main__":
    main()
