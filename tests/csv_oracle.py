"""Reference reader for the counts CSV: one line at a time, every check in
the order the format states it.

The package reads the data rows as columns (``qiup.estimation``); this
reader keeps the plain per-line form, so that a test can hold the two to the
same outcome: the same scan, or the same message at the same line.  One
difference is intended: where a file has a second ``# shots=`` comment, this
reader lets the last one win, and the package refuses it.
"""
from __future__ import annotations

import math

import numpy as np

from qiup.errors import DataFormatError
from qiup.estimation import NoisyScan
from qiup.observables import FringeScan


def read_counts_csv(text: str):
    shots = None
    header = None
    phis: list[float] = []
    hs: list[float] = []
    vs: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("shots="):
                try:
                    shots = int(comment[len("shots="):])
                except ValueError as exc:
                    raise DataFormatError(f"malformed shots value: {comment!r}", lineno) from exc
                if shots < 1:
                    raise DataFormatError(f"shots must be at least 1, got {shots}", lineno)
            continue
        if header is None:
            header = line.replace(" ", "")
            if header not in ("phi,counts_h,counts_v", "phi,n_h,n_v"):
                raise DataFormatError(
                    "expected header 'phi,counts_h,counts_v' or 'phi,n_h,n_v', "
                    f"got {line!r}",
                    lineno,
                )
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"expected 3 comma-separated fields, got {len(parts)}", lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise DataFormatError(f"malformed number in {line!r}", lineno) from exc
        if not all(math.isfinite(x) for x in values):
            raise DataFormatError(f"non-finite value in {line!r}", lineno)
        if values[1] < 0 or values[2] < 0:
            raise DataFormatError(f"negative count in {line!r}", lineno)
        if phis and values[0] <= phis[-1]:
            raise DataFormatError(
                f"phi {values[0]!r} does not increase on the previous row's {phis[-1]!r}",
                lineno,
            )
        phis.append(values[0])
        hs.append(values[1])
        vs.append(values[2])
    if header is None or not phis:
        raise DataFormatError("no data rows found")
    grid, counts = np.array(phis), np.array((hs, vs))
    if header == "phi,n_h,n_v":
        return FringeScan._of(grid, counts, "", "phi")
    if shots is None:
        raise DataFormatError("missing '# shots=N' header comment")
    if np.all(counts == np.trunc(counts)):
        if counts.max() >= 2.0**63:
            raise DataFormatError("integer counts must be below 2**63")
        return NoisyScan._of(grid, counts.astype(np.int64), shots, 0, "phi")
    return FringeScan._of(grid, counts / shots, "", "phi")
