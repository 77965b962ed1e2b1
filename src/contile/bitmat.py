"""Binary matrices: I/O, reconstruction, error metrics, contiguity checks.

Matrices are immutable 0/1 matrices indexed from 0, stored as a dense
boolean array (fast vectorized slicing).
"""

from __future__ import annotations

import re
from array import array
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


class FormatError(ValueError):
    """Malformed matrix or report text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BinaryMatrix:
    """Immutable rectangular 0/1 matrix."""

    def __init__(self, dense: np.ndarray):
        arr = np.array(dense, dtype=bool)  # a copy, so the caller's array is never aliased
        if arr.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        arr.setflags(write=False)
        self._dense, self._nnz = arr, int(np.count_nonzero(arr))

    # -- construction --------------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BinaryMatrix":
        return cls._owning(np.zeros((n_rows, n_cols), dtype=bool))

    @classmethod
    def _owning(cls, arr: np.ndarray) -> "BinaryMatrix":
        """Wrap a 2-D bool array that nothing else refers to, without copying it."""
        m = cls.__new__(cls)
        arr.setflags(write=False)
        m._dense, m._nnz = arr, int(np.count_nonzero(arr))
        return m

    # -- views ----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._dense.shape[0]

    @property
    def n_cols(self) -> int:
        return self._dense.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._dense.shape

    @property
    def nnz(self) -> int:
        return self._nnz

    def dense(self) -> np.ndarray:
        """Read-only dense boolean view."""
        return self._dense

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._dense, other._dense))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


# -- text formats --------------------------------------------------------

BLOCK_CHARS = 1 << 14  # characters read and parsed at once: 16 KB, so memory stays flat
_LINE_END = re.compile(r"\r\n?|\n")


def _blocks(source: str | TextIO) -> Iterator[tuple[str, int]]:
    """`source`, a `str` or an open text file, as blocks of whole lines, each
    with the number of its first line. "\\n", "\\r\\n" and a lone "\\r" end a
    line, and each becomes "\\n" in the block.

    A `str` is cut at the first line end from the block's `BLOCK_CHARS`-th
    character on; a file is read `BLOCK_CHARS` at a time, and `readline`
    finishes the line that the read cut. So no "\\r\\n" is split either way.
    """
    first, at = 1, 0
    while True:
        if isinstance(source, str):
            end = _LINE_END.search(source, at + BLOCK_CHARS - 1)
            block = source[at : end.end() if end else len(source)]
            at += len(block)
        else:  # the type before the emptiness, so an empty binary file raises too
            if not isinstance(block := source.read(BLOCK_CHARS), str):
                raise TypeError(f"expected a text file, got one that reads {type(block).__name__}")
            block += source.readline()
        if not block:
            return
        block = block.replace("\r\n", "\n").replace("\r", "\n")
        yield block, first
        first += block.count("\n")


def load_dense(source: str | TextIO) -> BinaryMatrix:
    """Parse rows of '0'/'1' characters, one row per line.

    `source` is the text or an open text file; "\\n", "\\r\\n" and a lone
    "\\r" end a line. It is read in blocks of whole lines (`_blocks`) and
    never held whole: each checked row is appended to one byte buffer that
    becomes the matrix in place.
    """
    buf = bytearray()
    width = None
    for block, first in _blocks(source):
        for lineno, line in enumerate(block.removesuffix("\n").split("\n"), first):
            if width is None:
                width = len(line)
            if len(line) != width:
                raise FormatError(f"expected {width} characters, got {len(line)}", lineno)
            bad = set(line) - {"0", "1"}
            if bad:
                raise FormatError(f"invalid characters {sorted(bad)}", lineno)
            buf += line.encode("ascii")
    if width is None:
        return BinaryMatrix.zeros(0, 0)
    dense = np.frombuffer(buf, dtype=np.uint8).reshape(lineno, width)
    dense -= ord("0")  # 0/1 bytes, read as bools without a copy
    return BinaryMatrix._owning(dense.view(bool))


def dump_dense(m: BinaryMatrix) -> str:
    """The dense text: each row as '0'/'1' characters and a "\\n", so "" for
    no rows and n "\\n" for n rows of none. Built in one (n, m + 1) byte array."""
    text = np.full((m.n_rows, m.n_cols + 1), ord("\n"), dtype=np.uint8)
    np.add(m.dense(), ord("0"), out=text[:, :-1], dtype=np.uint8)
    return text.tobytes().decode("ascii")


_BLANKS = " \t\r\x0b\x0c"  # what separates the tokens of a sparse line; str.split knows more
_TOKEN = re.compile(f"[^{_BLANKS}]+")
_CLASS = np.full(256, 3, dtype=np.uint8)  # byte classes of `_parsed`; 3: none of the others
# 0: one of the _BLANKS; 1: a digit; 2: the line end
_CLASS[list(_BLANKS.encode())], _CLASS[list(b"0123456789")], _CLASS[ord("\n")] = 0, 1, 2


def integers(tokens: Sequence[str], line: int, message: str = "") -> tuple[int, ...]:
    """The tokens as ints when each is ASCII digits after an optional "-", else
    a FormatError at `line`: `message`, or one quoting the tokens."""
    if all(t.isascii() and t.removeprefix("-").isdigit() for t in tokens):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(message or f"expected integers, got {' '.join(tokens)!r}", line)


def _checked_pair(line: str, lineno: int, shape: tuple[int, int] | None) -> tuple[int, int] | None:
    """The two integers on one line, or None for a blank line: the header's
    (n, m) while `shape` is None, else a cell (i, j) inside `shape`."""
    if not (parts := _TOKEN.findall(line)):
        return None
    if len(parts) != 2:
        raise FormatError("header must be 'n m'" if shape is None else "cell line must be 'i j'", lineno)
    a, b = integers(parts, lineno, "header must contain two integers" if shape is None else "cell indices must be integers")
    if shape is None and (a < 0 or b < 0):
        raise FormatError("negative dimensions", lineno)
    if shape is None and max(a, b) >= 2**63:  # past numpy's index range: no cell could be stored
        raise FormatError(f"{a}x{b} matrix does not fit in memory", lineno)
    if shape is not None and not (0 <= a < shape[0] and 0 <= b < shape[1]):
        raise FormatError(f"index ({a}, {b}) out of range for {shape[0]}x{shape[1]}", lineno)
    return a, b


def _parsed(block: str, shape: tuple[int, int]) -> np.ndarray | None:
    """A block's cells as int64 (i, j) rows, read by one numpy pass over its
    bytes: a class per byte (`_CLASS`), token edges where runs of digits
    start and end, a token count per line, values by Horner's rule, and one
    range check. None, and `load_sparse` checks the block line by line,
    unless every line is blank or two ASCII integers of at most 18 digits
    (so below 2**63) inside `shape`."""
    data = np.frombuffer(block.encode("ascii", "replace"), dtype=np.uint8)
    kind = _CLASS[data]
    starts, ends = np.flatnonzero(np.diff((kind == 1).view(np.int8), prepend=0, append=0)).reshape(-1, 2).T
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(kind == 2)), prepend=0, append=len(starts))
    width = ends - starts  # token t is data[starts[t]:ends[t]]
    if (kind == 3).any() or ((per_line != 0) & (per_line != 2)).any() or width.max(initial=0) > 18:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for k in range(width.max(initial=0), 0, -1):  # Horner's rule over right-aligned digits
        values = values * 10 + np.where(width >= k, data.take(ends - k, mode="clip") - 48, 0)
    cells = values.reshape(-1, 2)
    return cells if (cells < shape).all() else None


def load_sparse(source: str | TextIO) -> BinaryMatrix:
    """Parse 'n m' header followed by 'i j' cell lines (0-based, dupes ok).

    `source` is the text or an open text file; "\\n", "\\r\\n" and a lone
    "\\r" end a line. It is read in blocks of whole lines (`_blocks`) and
    never held whole. The header is the first line that is not blank. Each
    block of lines after it is read by one numpy pass (`_parsed`), or line
    by line where the pass refuses it, to name its first bad line: so every
    line is checked before the matrix that the header names is allocated.
    """
    shape, rows, cols = None, array("q"), array("q")
    for block, first in _blocks(source):
        if shape is None:  # the header: the first line that is not blank
            if not (rest := block.lstrip(_BLANKS + "\n")):
                continue
            header_at = first + block.count("\n", 0, len(block) - len(rest))
            line, _, block = rest.partition("\n")
            shape, first = _checked_pair(line, header_at, None), header_at + 1
        if (cells := _parsed(block, shape)) is None:
            pairs = [pair for at, line in enumerate(block.split("\n"), first) if (pair := _checked_pair(line, at, shape))]
            cells = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        for buf, column in zip((rows, cols), cells.T):
            buf.frombytes(column.tobytes())
    if shape is None:
        raise FormatError("missing 'n m' header", 1)
    try:
        dense = np.zeros(shape, dtype=bool)
    except (MemoryError, ValueError):  # ValueError: more bytes than an address space holds
        raise FormatError(f"{shape[0]}x{shape[1]} matrix does not fit in memory", header_at) from None
    dense[np.frombuffer(rows, dtype=np.int64), np.frombuffer(cols, dtype=np.int64)] = True
    return BinaryMatrix._owning(dense)


def dump_sparse(m: BinaryMatrix) -> str:
    """The sparse text: an "n m" header line, then an "i j" line per one,
    row-major. Written a row at a time: the row's column strings (each built
    once) joined by "\\ni ", so no string is formatted per cell."""
    d, cols = m.dense(), list(map(str, range(m.n_cols)))
    out = [f"{m.n_rows} {m.n_cols}\n"]
    for i in np.flatnonzero(d.any(axis=1)).tolist():
        sep = f"\n{i} "
        out.append(sep[1:] + sep.join(map(cols.__getitem__, np.flatnonzero(d[i]).tolist())) + "\n")
    return "".join(out)


# -- reconstruction and error ----------------------------------------------


HAMMING_CELLS = 1 << 16  # cells compared at once by `hamming_error`: 64 KB of `a != b`, never a matrix-sized one


def hamming_error(a: BinaryMatrix, b: BinaryMatrix) -> int:
    """Number of disagreeing cells, counted a block of rows at a time: at least
    one row and otherwise at most `HAMMING_CELLS` cells, so the only array it
    allocates is one block's `a != b`."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    x, y, step = a.dense(), b.dense(), max(1, HAMMING_CELLS // max(1, a.n_cols))
    return sum(int(np.count_nonzero(x[i : i + step] != y[i : i + step])) for i in range(0, a.n_rows, step))


def reconstruct(f) -> BinaryMatrix:
    """Union of a factorization's rank-1 tiles (plus transposes for symmetric variants).

    Accepts any object with .factors (list of (rows, cols) index tuples),
    .row_order / .col_order permutations (define the target shape) and
    .symmetric, such as a `Factorization`.
    """
    n, m = len(f.row_order), len(f.col_order)
    dense = np.zeros((n, m), dtype=bool)
    for rows, cols in f.factors:
        dense[np.ix_(rows, cols)] = True
        if f.symmetric:
            dense[np.ix_(cols, rows)] = True
    return BinaryMatrix._owning(dense)


# -- contiguity checks ----------------------------------------------------


def positions(order: Sequence[int]) -> dict[int, int]:
    """Position of each element under an order of 0..n-1."""
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of 0..n-1")
    return {v: p for p, v in enumerate(order)}


def run_under(members: Iterable[int], pos: dict[int, int], cyclic: bool = False) -> tuple[int, int] | None:
    """(start, length) of the run a set occupies under `positions(order)`, or None.

    With `cyclic` the run may wrap past the end; a wrapped run starts after
    its gap.  The empty set is the run (0, 0).
    """
    ps = sorted(pos[u] for u in members)
    k = len(ps)
    if not ps:
        return 0, 0
    if ps[-1] - ps[0] + 1 == k:
        return ps[0], k
    gaps = [i for i in range(k - 1) if ps[i + 1] - ps[i] > 1]
    if cyclic and len(gaps) == 1 and ps[0] == 0 and ps[-1] == len(pos) - 1:
        return ps[gaps[0] + 1], k
    return None


def is_unimodal_under(sets: Iterable[Iterable[int]], order: Sequence[int]) -> bool:
    """True iff every set occupies consecutive positions under the order."""
    pos = positions(order)
    return all(run_under(s, pos) is not None for s in sets)


def is_cyclic_under(sets: Iterable[Iterable[int]], order: Sequence[int]) -> bool:
    """True iff every set is consecutive modulo the universe size."""
    pos = positions(order)
    return all(run_under(s, pos, cyclic=True) is not None for s in sets)
