"""Record the reference labels of the full pinned slice grids.

    python3 bench/make_reference.py

Runs `dwigner slice` on each pinned slice file in `sample_inputs/` and writes
`bench/reference_labels.json`: per file the swept axes, the grid shape, the
value the derived coordinate completes, and one letter per grid point in
row-major order (first axis slowest).  The slice-hull workload checks every
point it scans against this file.  Regenerate it only when a change is meant
to alter slice labels, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def reference_for(cli_main, spec: Path, out: Path) -> dict:
    text = spec.read_text()
    axes = workloads.swept_axes(text)
    shape = [int((hi - lo) / step) + 1 for lo, hi, step in axes]
    ref = {"axes": [[str(v) for v in axis] for axis in axes], "shape": shape}
    fixed = [Fraction(line.split()[2]) for line in text.splitlines() if line.startswith("fixed ")]
    if any(line.split()[-1] == "derived" for line in text.splitlines() if line.startswith("free ")):
        ref["derived_value"] = str(1 - sum(fixed))
    if cli_main(["slice", str(spec), "--out", str(out)]) != 0:
        raise RuntimeError(f"dwigner slice failed on {spec}")
    rows, _ = workloads.read_csv(out)
    count = 1
    for size in shape:
        count *= size
    labels = [None] * count
    for row in rows:
        flat = 0
        for i, (axis, size) in enumerate(zip(ref["axes"], shape)):
            flat = flat * size + workloads.grid_index(float(row[f"axis{i + 1}"]), axis)
        labels[flat] = workloads.LABEL_CODES[row["label"]]
    if None in labels:
        raise RuntimeError(f"{spec}: the scan left grid points unlabelled")
    ref["labels"] = "".join(labels)
    return ref


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dwigner.cli import main as cli_main

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in workloads.SLICE_FILES:
            reference[name] = reference_for(
                cli_main, ROOT / "sample_inputs" / name, Path(tmp) / "grid.csv"
            )
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    for name, ref in reference.items():
        counts = {code: ref["labels"].count(code) for code in sorted(set(ref["labels"]))}
        print(name, ref["shape"], counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
