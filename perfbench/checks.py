"""Output checks for figure items, and the compact reference store.

On the default seed every CSV must match the reference recorded from the
same configs to 1e-12 absolute with identical NaN positions, and every
manifest must equal the reference as parsed JSON.  On every seed the values
must be finite outside the rows the manifest lists as singular.

References are stored per figure as the CSV's float64 columns with their
bytes shuffled (all first bytes, then all second bytes, ...) and compressed
with lzma, about a tenth of the CSV's size.
"""

import json
import lzma
from pathlib import Path

import numpy as np

TOLERANCE = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
INDEX = "index.json"


def read_csv(path):
    """(columns, values) of a figure CSV."""
    with open(path, encoding="utf-8") as fh:
        columns = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    return columns, values


def encode(values):
    cols = np.ascontiguousarray(values.T, dtype="<f8")
    return lzma.compress(cols.view(np.uint8).reshape(-1, 8).T.tobytes(), preset=9)


def decode(blob, shape):
    raw = np.frombuffer(lzma.decompress(blob), dtype=np.uint8)
    rows, ncols = shape
    cols = np.ascontiguousarray(raw.reshape(8, rows * ncols).T).view("<f8")
    return cols.reshape(ncols, rows).T.copy()


def write_reference(ref_dir, name, columns, values, manifest):
    ref_dir.mkdir(parents=True, exist_ok=True)
    (ref_dir / f"{name}.f64.xz").write_bytes(encode(values))
    index_path = ref_dir / INDEX
    index = json.loads(index_path.read_text(encoding="utf-8")) if index_path.exists() else {}
    index[name] = {"columns": columns, "shape": list(values.shape), "manifest": manifest}
    index_path.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_references(ref_dir=REFERENCE_DIR):
    """name -> (columns, values, manifest)."""
    index = json.loads((ref_dir / INDEX).read_text(encoding="utf-8"))
    return {
        name: (e["columns"], decode((ref_dir / f"{name}.f64.xz").read_bytes(), e["shape"]), e["manifest"])
        for name, e in index.items()
    }


def compare_values(values, reference, tol=TOLERANCE):
    """Problems found comparing two value arrays; empty when they agree."""
    if values.shape != reference.shape:
        return [f"shape {values.shape} != reference {reference.shape}"]
    problems = []
    nan_v, nan_r = np.isnan(values), np.isnan(reference)
    if not np.array_equal(nan_v, nan_r):
        problems.append(f"NaN positions differ in {int(np.sum(nan_v != nan_r))} cells")
    both = ~(nan_v | nan_r)
    with np.errstate(invalid="ignore"):
        close = (values[both] == reference[both]) | (np.abs(values[both] - reference[both]) <= tol)
    if not np.all(close):
        worst = np.nanmax(np.abs(values[both] - reference[both]))
        problems.append(f"{int(np.sum(~close))} cells differ by more than {tol:g} (max {worst:.3g})")
    return problems


def singular_rows(values, manifest):
    """Mask of rows the manifest lists as singular (by their first column)."""
    phases = manifest.get("singular_phases", [])
    if not phases or values.size == 0:
        return np.zeros(len(values), dtype=bool)
    return np.isin(values[:, 0], np.asarray(phases, dtype=np.float64))


def check_figure(name, out_dir, reference=None, known_nan_columns=()):
    """Problems with one figure's CSV and manifest; empty when it passes.

    ``known_nan_columns`` are columns that already hold NaN outside singular
    rows in the reference output; NaN there is the recorded behaviour, not a
    new failure.  Every other non-finite value outside singular rows fails.
    """
    out_dir = Path(out_dir)
    csv_path, manifest_path = out_dir / f"{name}.csv", out_dir / f"{name}.manifest.json"
    if not csv_path.exists() or not manifest_path.exists():
        return ["missing CSV or manifest"]
    columns, values = read_csv(csv_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    if manifest.get("n_rows") != len(values):
        problems.append(f"manifest n_rows {manifest.get('n_rows')} != {len(values)} CSV rows")
    allowed = singular_rows(values, manifest)
    for j, col in enumerate(columns):
        if col in known_nan_columns:
            continue
        bad = ~np.isfinite(values[:, j]) & ~allowed
        if np.any(bad):
            problems.append(f"{int(np.sum(bad))} non-finite values in column {col}")
    if reference is not None:
        ref_columns, ref_values, ref_manifest = reference
        if columns != ref_columns:
            problems.append(f"columns {columns} != reference {ref_columns}")
        problems += compare_values(values, ref_values)
        if manifest != ref_manifest:
            problems.append("manifest differs from reference")
    return problems


def nan_columns(reference):
    """Columns of a reference output that hold NaN outside singular rows."""
    columns, values, manifest = reference
    allowed = singular_rows(values, manifest)
    return [
        col for j, col in enumerate(columns)
        if np.any(np.isnan(values[:, j]) & ~allowed)
    ]

