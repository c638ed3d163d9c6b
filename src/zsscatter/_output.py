"""CSV output shared by the scattering, potential and recovery writers."""

from __future__ import annotations

import csv

import numpy as np


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length real columns under a header, floats as repr(float)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)):
            writer.writerow([repr(v) for v in row])
