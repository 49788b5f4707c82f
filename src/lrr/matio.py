"""CSV matrix and JSON record serialization used by the CLI.

Matrices are written one row per line, comma-separated, 17 significant
digits (lossless for float64), with no header. All writes go through a
temp-file-and-rename so readers never see partial files."""

import json
import os

import numpy as np

from .linalg import as_matrix


def _atomic_write(path, chunks):
    """Write the strings of ``chunks`` one at a time to a temp file beside
    ``path``, then rename it over ``path``. On any failure the temp file is
    removed and ``path`` is left as it was.

    The temp file is created with mode 0666 less the umask, the mode a plain
    ``open`` would give, and ``os.replace`` keeps it; ``O_EXCL`` and a random
    name make sure no other file is opened in its place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, M):
    """Write ``M`` one row per line, each value as ``%.17g``. Rows are
    formatted and written one at a time, so the text of the whole matrix is
    never held in memory."""
    M = as_matrix(M)
    row_format = ",".join(["%.17g"] * M.shape[1]) + "\n"
    _atomic_write(path, (row_format % tuple(row.tolist()) for row in M))


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
    _atomic_write(path, [text + "\n"])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
