"""CSV matrix and JSON record serialization used by the CLI.

Matrices are written one row per line, comma-separated, 17 significant
digits (lossless for float64), no header unless asked. All writes go
through a temp-file-and-rename so readers never see partial files."""

import json
import os
import tempfile

import numpy as np

from .linalg import as_matrix


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, M, header=False):
    M = as_matrix(M)
    lines = []
    if header:
        lines.append(",".join(f"c{j}" for j in range(M.shape[1])))
    for row in M:
        lines.append(",".join(f"{v:.17g}" for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_csv(path, header=False):
    try:
        M = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot parse matrix file {path}: {exc}") from exc
    return as_matrix(M, name=str(path))


def read_int_vector(path):
    """Read a one-per-line (or single-row) integer vector, e.g. labels."""
    M = read_matrix_csv(path)
    v = M.ravel()
    iv = v.astype(int)
    if not np.array_equal(iv, v):
        raise ValueError(f"{path} does not hold integers")
    return iv


def write_json(path, record):
    """Write ``record`` as sorted, indented JSON; NumPy arrays and scalars
    are written as the lists and numbers of their ``tolist()``."""
    text = json.dumps(record, indent=2, sort_keys=True, default=lambda v: v.tolist())
    _atomic_write_text(path, text + "\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
