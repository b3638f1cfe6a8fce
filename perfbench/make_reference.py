"""Record the reference outputs of the default seed's figure configs.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Rewrites ``perfbench/reference/``;
do this only at a commit whose outputs are the accepted ones.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from mesoweyl import cli  # noqa: E402


def main():
    work = HERE / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(checks.REFERENCE_DIR, ignore_errors=True)
    os.environ.pop("MESOWEYL_OUT", None)
    for workload, (kind, _) in workloads.WORKLOADS.items():
        if kind != "run":
            continue
        items = workloads.write_configs(
            workload, workloads.DEFAULT_SEED, ROOT / "configs", work / "configs"
        )
        for item in items:
            out = work / "out"
            if cli.main(["run", "--config", item["config"], "--out", str(out)]) != 0:
                raise SystemExit(f"{item['name']} failed; no reference written")
            columns, values = checks.read_csv(out / f"{item['name']}.csv")
            manifest = json.loads((out / f"{item['name']}.manifest.json").read_text(encoding="utf-8"))
            checks.write_reference(checks.REFERENCE_DIR, item["name"], columns, values, manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
