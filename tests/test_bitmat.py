import bisect
import io
import random
import re
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contile import bitmat, synth
from contile.bitmat import (
    BinaryMatrix,
    FormatError,
    dump_dense,
    dump_sparse,
    hamming_error,
    is_cyclic_under,
    is_unimodal_under,
    load_dense,
    load_sparse,
    positions,
    reconstruct,
    run_under,
)
from contile.cli import _read_matrix
from contile.factorizer import Factorization

from conftest import peak_bytes


def mat(rows):
    return BinaryMatrix(np.array(rows, dtype=bool))


class TestLoadDense:
    def test_identity(self):
        m = load_dense("10\n01")
        assert m == BinaryMatrix(np.eye(2, dtype=bool))

    def test_empty_input(self):
        m = load_dense("")
        assert m.shape == (0, 0) and m.nnz == 0

    def test_full(self):
        m = load_dense("111\n111")
        assert m.shape == (2, 3) and m.nnz == 6

    def test_ragged(self):
        with pytest.raises(FormatError, match="line 2"):
            load_dense("10\n0")

    def test_bad_char(self):
        with pytest.raises(FormatError, match="line 1"):
            load_dense("1x\n00")
        with pytest.raises(FormatError, match="line 2"):
            load_dense("10\n0\u00e9")

    def test_load_allocates_near_text_size(self):
        d = BinaryMatrix(np.random.default_rng(1).random((1000, 1000)) < 0.5)
        text = dump_dense(d)

        def load():
            assert load_dense(text) == d

        # the text's lines and the 1 MB result; a bool list per row needs ~10x
        assert peak_bytes(load) < 3 * 1000 * 1000

    @pytest.mark.parametrize(
        "data,line",
        [(b"10\r\n0\r\n", 2), (b"10\n0\xc3\xa9\n", 2), (b"1x\r\n00\r\n", 1), (b"10\r01\r\r", 3)],
    )
    def test_file_object_same_line_numbers(self, tmp_path, data, line):
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^line {line}: "):
            load_dense(data.decode("utf-8"))
        with open(path, encoding="utf-8", newline="") as fh, pytest.raises(FormatError, match=f"^line {line}: "):
            load_dense(fh)

    def test_file_object(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"101\r\n010\n111\r")
        with open(path, encoding="utf-8", newline="") as fh:
            assert load_dense(fh) == load_dense("101\n010\n111\n")

    def test_read_matrix_holds_one_copy(self, tmp_path):
        d = BinaryMatrix(np.random.default_rng(1).random((1000, 1000)) < 0.5)
        path = tmp_path / "m.txt"
        path.write_text(dump_dense(d), encoding="utf-8")

        got = []
        # the 1 MB result and one line at a time; the whole text beside it needs 3 MB
        assert peak_bytes(lambda: got.append(_read_matrix(str(path), "dense"))) < 1.5 * 1000 * 1000
        assert got == [d]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
    @given(
        st.lists(st.sampled_from(["101", "010", "111", "000", "10", "", "1011", "1x1", "0\u00e91"]), max_size=12),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_blocks(self, spm_path, block, rows, data):
        # edges inside rows and between "\r" and "\n"; ragged and bad rows fail at their line
        endings = data.draw(st.lists(ENDINGS, min_size=len(rows), max_size=len(rows)))
        text = join_lines(rows, endings, data.draw(st.booleans())) if rows else ""
        want = outcome(load_dense, text)
        path = spm_path.with_suffix(".dns")
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(bitmat, "BLOCK_CHARS", block):
            assert outcome(load_dense, text) == want
            for newline in ("", None):
                with open(path, encoding="utf-8", newline=newline) as fh:
                    assert outcome(load_dense, fh) == want


class TestLoadSparse:
    def test_identity(self):
        assert load_sparse("2 2\n0 0\n1 1") == BinaryMatrix(np.eye(2, dtype=bool))

    def test_duplicates_collapse(self):
        m = load_sparse("3 3\n0 1\n0 1")
        assert m.nnz == 1 and m.dense()[0, 1]

    def test_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            load_sparse("2 2\n2 0")

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            load_sparse("2\n0 0")

    @pytest.mark.parametrize("text,message", [
        ("1_0 3\n0 0\n", "^line 1: header must contain two integers"),
        ("+3 3\n0 0\n", "^line 1: header must contain two integers"),
        ("\uff13 3\n0 0\n", "^line 1: header must contain two integers"),
        ("3 3\n\u0661 2\n", "^line 2: cell indices must be integers"),
        ("3 3\n1 +2\n", "^line 2: cell indices must be integers"),
        ("3 3\n0 0\n1_0 2\n", "^line 3: cell indices must be integers"),
        ("3 3\n-1 2\n", "^line 2: index \\(-1, 2\\) out of range for 3x3"),
        ("-3 3\n", "^line 1: negative dimensions"),
    ])
    def test_only_ascii_integers(self, text, message):
        # int() alone would read "1_0" as 10, "+3" as 3 and the Arabic-Indic "\u0661" as 1
        with pytest.raises(FormatError, match=message):
            load_sparse(io.StringIO(text))

    @pytest.mark.parametrize(
        "text,line",
        [("2 2\r\n0 0\r\n\r\n2 0\r\n", 4), ("2\n0 0\n", 1), ("2 2\n0 x\n", 2), ("\n\n", 1)],
    )
    def test_file_object_same_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "m.spm"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=f"^line {line}: "):
            load_sparse(text)
        with open(path, encoding="utf-8", newline="") as fh, pytest.raises(FormatError, match=f"^line {line}: "):
            load_sparse(fh)

    def test_file_object(self, tmp_path):
        path = tmp_path / "m.spm"
        path.write_bytes(b"2 3\r\n0 2\n\n1 0\r")
        with open(path, encoding="utf-8", newline="") as fh:
            assert load_sparse(fh) == load_sparse("2 3\n0 2\n1 0\n")

    def test_header_too_large_for_memory(self):
        # numpy refuses a 10^18-byte array at once, without touching memory;
        # the others name a side past int64, or more bytes than int64 counts
        for text in ("1000000000 1000000000\n0 0", "99999999999999999999 2\n99999999999999999998 0",
                     "9223372036854775808 1", "4611686018427387904 4"):
            with pytest.raises(FormatError, match="line 1"):
                load_sparse(text)

    def test_malformed_cell_fails_before_allocating(self):
        def load():
            with pytest.raises(FormatError, match="line 2"):
                load_sparse("8000 8000\n0 x\n")

        assert peak_bytes(load) < 1 << 20  # the header names 64 MB

    def test_valid_load_allocates_one_buffer(self):
        def load():
            m = load_sparse("4000 4000\n0 1\n")
            assert m.nnz == 1 and m.dense()[0, 1]

        assert peak_bytes(load) < 1.5 * 4000 * 4000

    def test_valid_load_holds_no_more_than_its_cells(self, tmp_path):
        d = BinaryMatrix(np.random.default_rng(1).random((1005, 1005)) < 0.1)
        path = tmp_path / "m.spm"
        path.write_text(dump_sparse(d), encoding="utf-8")

        got = []
        # 16 bytes per cell (101k cells) and the 1 MB result: 2.7 MB; the 0.8 MB
        # text held whole would not fit, nor would its tokens (about 12 MB)
        assert peak_bytes(lambda: got.append(_read_matrix(str(path), "sparse"))) < 3 * 1000 * 1000
        assert got == [d]

    @pytest.mark.parametrize("form", ["str", "crlf file"])
    def test_valid_load_of_other_sources_holds_no_more_than_its_cells(self, tmp_path, form):
        d = BinaryMatrix(np.random.default_rng(1).random((1005, 1005)) < 0.1)
        text = dump_sparse(d)
        path = tmp_path / "m.spm"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        load = (lambda: load_sparse(text)) if form == "str" else (lambda: _read_matrix(str(path), "sparse"))

        got = []
        with mock.patch.object(bitmat, "_checked_pair", wraps=bitmat._checked_pair) as checked:
            # the same bound as a file with "\n" endings: blocks, not the whole text
            assert peak_bytes(lambda: got.append(load())) < 3 * 1000 * 1000
        assert got == [d]
        assert checked.call_count == 1  # the header only: "\r\n" stays on the numpy pass


def reference_int(token):
    """int(token) for an optional "-" and ASCII digits; ValueError for any other token ("1_0", "+1", "\u0663")."""
    if not re.fullmatch(r"-?[0-9]+", token, re.ASCII):
        raise ValueError(token)
    return int(token)


def reference_load_sparse(text):
    """The line-by-line loop `load_sparse` ran before its chunked parse: the
    oracle for the differential tests below.  Tokens are integers by
    `reference_int`'s rule, between runs of space, tab, CR, VT and FF."""
    shape, cells = None, []
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):  # lines end at \n, \r\n and \r
        parts = re.findall("[^ \t\r\x0b\x0c\n]+", line)  # the blanks of a sparse line, not all of str.split's
        if not parts:
            continue
        if shape is None:
            if len(parts) != 2:
                raise FormatError("header must be 'n m'", lineno)
            try:
                n, m = shape = reference_int(parts[0]), reference_int(parts[1])
            except ValueError:
                raise FormatError("header must contain two integers", lineno) from None
            if n < 0 or m < 0:
                raise FormatError("negative dimensions", lineno)
            continue
        if len(parts) != 2:
            raise FormatError("cell line must be 'i j'", lineno)
        try:
            i, j = reference_int(parts[0]), reference_int(parts[1])
        except ValueError:
            raise FormatError("cell indices must be integers", lineno) from None
        if not (0 <= i < n and 0 <= j < m):
            raise FormatError(f"index ({i}, {j}) out of range for {n}x{m}", lineno)
        cells.append((i, j))
    if shape is None:
        raise FormatError("missing 'n m' header", 1)
    dense = np.zeros(shape, dtype=bool)
    for i, j in cells:
        dense[i, j] = True
    return BinaryMatrix(dense)


def outcome(load, source):
    """The matrix, or the FormatError's text."""
    try:
        return load(source)
    except FormatError as exc:
        return str(exc)


N = 12  # every text below declares a 12x12 matrix
# Runs of lines that are each kept whole; the pair ("1", "2 3 4") has the
# token count of two cells, but neither line is one.
BLANK = [("",), ("  ",), ("\t",), ("\x0b\x0c",)]
VALID = [("0 0",), (" 1\t2 ",), ("-0 011",)]
BAD = [
    ("1",), ("1 2 3",), ("0 0 1 1",), ("1", "2 3 4"), ("x 0",), ("1.0 0",), ("0x1 0",), ("1__0 0",),
    ("12 0",), ("0 12",), ("-1 0",), ("99999999999999999999 0",), ("0 -99999999999999999999",),
    ("\u0663 1",), ("1_0 0",), ("+1 11",), ("\uff11 \uff12",), ("- 1",), ("1 --1",),
    ("\x1c",), ("\u3000",), ("1\x1c0",), ("0\u30000",), ("1\x850",),  # blanks to str.split, not to the loader
]
HEADERS = [("12 12",), (" 12\t12 ",), ("12",), ("12 x",), ("-1 12",), ("+12 12",), ("12 1_2",), ("\uff11\uff12 12",), ("12\x1f12",)]
LINE_ENDS = ["\n", "\r\n", "\r"]
ENDINGS = st.sampled_from(LINE_ENDS)


def valid_cells(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [f"{rng.randrange(N)} {rng.randrange(N)}" for _ in range(count)]


def join_lines(lines: list[str], endings: list[str], final_newline: bool) -> str:
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if final_newline else text[: -len(endings[-1])]


def assert_same_outcome(text: str, path) -> None:
    """`load_sparse` agrees with the reference on `text` given as a str and
    as a file opened with newline="" and with the default newline, where the
    file object turns "\\r\\n" and "\\r" into "\\n" as it reads."""
    want = outcome(reference_load_sparse, text)
    assert outcome(load_sparse, text) == want
    path.write_bytes(text.encode("utf-8"))
    for newline in ("", None):
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert outcome(load_sparse, fh) == want


@pytest.fixture(scope="module")
def spm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("spm") / "m.spm"


def block_edge_line(lines: list[str], endings: list[str], edge: int) -> int:
    """The index of the line that holds character `edge` * BLOCK_CHARS, where
    one read of the default block size ends and the next begins."""
    ends_at = list(accumulate(len(line) + len(end) for line, end in zip(lines, endings)))
    return bisect.bisect_right(ends_at, edge * bitmat.BLOCK_CHARS)


class TestLoadSparseMatchesLineByLine:
    """`load_sparse` gives the matrix, or the FormatError at the line, that a
    plain line-by-line parse gives, whatever the block edges cut."""

    @given(
        st.sampled_from([1, 2, 3, 5, 7]),
        st.lists(st.sampled_from(BLANK), max_size=2),
        st.sampled_from(HEADERS),
        st.lists(st.sampled_from(BLANK + VALID * 3 + BAD), max_size=24),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_small_blocks(self, spm_path, block, before, header, runs, data):
        # edges inside tokens, between "\r" and "\n", and right after the header
        lines = [line for run in [*before, header, *runs] for line in run]
        endings = data.draw(st.lists(ENDINGS, min_size=len(lines), max_size=len(lines)))
        text = join_lines(lines, endings, data.draw(st.booleans()))
        with mock.patch.object(bitmat, "BLOCK_CHARS", block):
            assert_same_outcome(text, spm_path)

    @given(
        st.integers(0, 2**16),
        st.lists(
            st.tuples(st.sampled_from([1, 2]), st.integers(-2, 2), st.sampled_from(BLANK + VALID + BAD)),
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_texts_longer_than_a_block(self, spm_path, seed, inserts, final_newline):
        rng = random.Random(seed)
        lines = ["12 12", *valid_cells(seed, 9000)]
        endings = [rng.choice(LINE_ENDS) for _ in lines]
        assert sum(map(len, lines + endings)) > 2 * bitmat.BLOCK_CHARS
        at = {edge: block_edge_line(lines, endings, edge) for edge in (1, 2)}
        for edge, shift, run in sorted(inserts, reverse=True):  # `shift` lines from the one holding the edge
            lines[at[edge] + shift : at[edge] + shift] = run
            endings[at[edge] + shift : at[edge] + shift] = [rng.choice(LINE_ENDS) for _ in run]
        assert_same_outcome(join_lines(lines, endings, final_newline), spm_path)

    @pytest.mark.parametrize("edge,shift", [(0, 1), (1, -1), (1, 0), (2, -1), (2, 0)])
    @pytest.mark.parametrize("bad", ["12 0", "0 12", "-1 0", "0 -99999999999999999999"])
    def test_out_of_range_at_block_edges(self, spm_path, edge, shift, bad):
        lines = ["12 12", *valid_cells(1, 9000)]
        at = block_edge_line(lines, ["\r\n"] * len(lines), edge) + shift
        lines[at] = bad  # the first cell line, or the last or first line of a block
        text = "\r\n".join(lines) + "\r\n"
        with pytest.raises(FormatError, match=rf"^line {at + 1}: index"):
            load_sparse(text)
        assert_same_outcome(text, spm_path)

    def test_valid_blocks_skip_the_line_by_line_checks(self, spm_path):
        rng = random.Random(1)
        lines = valid_cells(1, 1100) + [line for run in BLANK[:3] * 30 for line in run]
        rng.shuffle(lines)
        text = "12 12\n" + "".join(line + rng.choice(LINE_ENDS) for line in lines) + "\n"
        spm_path.write_bytes(text.encode())
        with open(spm_path, encoding="utf-8", newline="") as fh:
            for source in (text, fh):
                with mock.patch.object(bitmat, "_checked_pair", wraps=bitmat._checked_pair) as checked:
                    assert load_sparse(source) == reference_load_sparse(text)
                assert checked.call_count == 1  # the header only

    @pytest.mark.parametrize("line", [line for run in VALID[2:] for line in run])
    def test_other_valid_tokens_take_the_line_checks(self, spm_path, line):
        # a sign: int() reads it, the numpy pass leaves it to the line checks
        text = "12 12\n" + "\n".join(valid_cells(1, 1100) + [line]) + "\n"
        with mock.patch.object(bitmat, "_checked_pair", wraps=bitmat._checked_pair) as checked:
            assert load_sparse(text) == reference_load_sparse(text)
        assert checked.call_count > 1
        assert_same_outcome(text, spm_path)

    @pytest.mark.parametrize("line", ["0" * 30 + "11 1", "9" * 18 + " 0", "9" * 19 + " 0", "1 18446744073709551617"])
    def test_long_tokens(self, spm_path, line):
        # past 18 digits the numpy pass could wrap int64; the line checks read them
        assert_same_outcome("12 12\n" + "\n".join(valid_cells(1, 1100) + [line]), spm_path)

    @pytest.mark.parametrize(
        "text,want",
        [
            ("12 12\n0 0\n\n1 1", [(0, 0), (1, 1)]),  # no final line end
            ("12 12\n0\n 1", "line 2: cell line must be 'i j'"),
            ("12 12\r\n0 0\r\n1 1", [(0, 0), (1, 1)]),
            ("12 12\n0 0\r1 1\n", [(0, 0), (1, 1)]),
            ("12 12\n0 0\r\n1\n2 3 4\n", "line 3: cell line must be 'i j'"),  # two lines, four tokens
            ("12 12\n1\x1c0\n", "line 2: cell line must be 'i j'"),  # str.split's blanks are no blanks here
            ("12 12\n1\x850\n", "line 2: cell line must be 'i j'"),
            ("12 12\n1\u30000\n", "line 2: cell line must be 'i j'"),
            ("12\x1f12\n1 0\n", "line 1: header must be 'n m'"),
            ("\x1c\n12 12\n", "line 1: header must be 'n m'"),
        ],
    )
    def test_short_texts(self, spm_path, text, want):
        if isinstance(want, list):
            d = np.zeros((N, N), dtype=bool)
            d[tuple(zip(*want))] = True
            want = BinaryMatrix(d)
        assert outcome(load_sparse, text) == want
        assert_same_outcome(text, spm_path)

    def test_lone_carriage_return_ends_a_line(self, spm_path):
        spm_path.write_bytes(b"12 12\n0 0\r1 1\n")
        with open(spm_path, encoding="utf-8", newline="") as fh:
            assert load_sparse(fh) == load_sparse("12 12\n0 0\n1 1\n")


@pytest.mark.parametrize("load,text", [(load_sparse, "12 12\n0 0\n"), (load_dense, "10\n01\n")])
def test_only_text_is_read(tmp_path, load, text):
    # a binary file's bytes, empty or not, and a list of lines are no source: they raise, never load
    path = tmp_path / "m.txt"
    for data in (text.encode(), b""):
        path.write_bytes(data)
        with open(path, "rb") as fh, pytest.raises(TypeError):
            load(fh)
    with pytest.raises(AttributeError):
        load(text.splitlines(keepends=True))


def reference_dump_sparse(m: BinaryMatrix) -> str:
    """The writer as one formatted string per cell, which `dump_sparse` must match byte for byte."""
    rs, cs = np.nonzero(m.dense())
    out = [f"{m.n_rows} {m.n_cols}"]
    out.extend(f"{i} {j}" for i, j in zip(rs.tolist(), cs.tolist()))
    return "\n".join(out) + "\n"


def reference_dump_dense(m: BinaryMatrix) -> str:
    """The writer as one character per cell, which `dump_dense` must match byte for byte."""
    d = m.dense()
    return "\n".join("".join("1" if x else "0" for x in row) for row in d) + ("\n" if m.n_rows else "")


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**20), st.booleans())
@settings(max_examples=60, deadline=None)
def test_dump_load_round_trip(n, m, bits, empty_last_row):
    rng = np.random.default_rng(bits)
    dense = rng.random((n, m)) < 0.4
    if empty_last_row:
        dense[-1:] = False
    d = BinaryMatrix(dense)
    assert dump_sparse(d) == reference_dump_sparse(d)
    assert dump_dense(d) == reference_dump_dense(d)
    assert load_sparse(dump_sparse(d)) == d
    if n > 0 and m > 0:
        assert load_dense(dump_dense(d)) == d


def test_dump_synth_blocks():
    # the benchmark's 1005² input: 40 blocks of 30, 10% flip noise
    d = synth.flip_noise(synth.gen_blocks(synth.BlockSpec(40, 30, 5)), 0.1, 1)
    assert dump_sparse(d) == reference_dump_sparse(d)
    assert dump_dense(d) == reference_dump_dense(d)


class TestHamming:
    def test_self(self):
        a = mat([[1, 0], [0, 1]])
        assert hamming_error(a, a) == 0

    def test_vs_zero(self):
        a = mat([[1, 1], [0, 1]])
        assert hamming_error(a, BinaryMatrix.zeros(2, 2)) == a.nnz

    def test_identity_vs_ones(self):
        ones = BinaryMatrix(np.ones((3, 3), dtype=bool))
        assert hamming_error(BinaryMatrix(np.eye(3, dtype=bool)), ones) == 6

    def test_metric_properties(self, rng):
        mats = [BinaryMatrix(np.array([[rng.random() < 0.5 for _ in range(3)] for _ in range(3)]))
                for _ in range(12)]
        for a in mats[:4]:
            for b in mats[4:8]:
                assert hamming_error(a, b) == hamming_error(b, a)
                assert (hamming_error(a, b) == 0) == (a == b)
                for c in mats[8:]:
                    assert hamming_error(a, c) <= hamming_error(a, b) + hamming_error(b, c)

    @staticmethod
    def pair(n, m):
        i, j = np.ogrid[:n, :m]
        return BinaryMatrix._owning(i * j % 7 < 3), BinaryMatrix._owning((i + 2 * j) % 5 < 2)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (1, 70000), (300, 301), (1024, 1024)])
    def test_blocks_count_every_cell(self, shape):
        # 1 x 70000: a row longer than a block is counted as one block
        a, b = self.pair(*shape)
        assert hamming_error(a, b) == np.count_nonzero(a.dense() != b.dense())

    def test_peak_is_one_block(self):
        # a 1024 x 1024 pair's `a != b` would take 1 MiB at once
        a, b = self.pair(1024, 1024)
        assert peak_bytes(lambda: hamming_error(a, b)) < 2**16 + 64 * 1024


def fz(variant, factors, row_order, col_order):
    return Factorization(variant, factors, tuple(row_order), tuple(col_order),
                         error=0, rank_requested=len(factors))


class TestReconstruct:
    def test_zero_factors(self):
        f = fz("plain", [], range(3), range(3))
        assert reconstruct(f) == BinaryMatrix.zeros(3, 3)

    def test_single_tile(self):
        f = fz("plain", [((0, 1), (1, 2))], range(3), range(3))
        assert reconstruct(f) == mat([[0, 1, 1], [0, 1, 1], [0, 0, 0]])

    def test_symmetric_adds_transpose(self):
        f = fz("sym", [((0,), (1, 2))], range(3), range(3))
        assert reconstruct(f) == mat([[0, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_cell_iff_some_factor(self, rng):
        for _ in range(15):
            factors = []
            for _ in range(rng.randint(0, 3)):
                factors.append((tuple(sorted(rng.sample(range(5), rng.randint(1, 4)))),
                                tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))))
            z = reconstruct(fz("plain", factors, range(5), range(4)))
            for i in range(5):
                for j in range(4):
                    want = any(i in r and j in c for r, c in factors)
                    assert z.dense()[i, j] == want


class TestContiguity:
    def test_unimodal_examples(self):
        assert is_unimodal_under([(0, 1), (1, 2)], (0, 1, 2))
        assert not is_unimodal_under([(0, 2)], (0, 1, 2))
        assert is_unimodal_under([(0, 2)], (0, 2, 1))
        pos = positions((3, 0, 1, 4, 2))
        assert run_under((0, 1), pos) == (1, 2)
        assert run_under((4, 1, 0), pos) == (1, 3)
        assert run_under((3, 0, 1, 4, 2), pos) == (0, 5)
        assert run_under((), pos) == (0, 0)
        assert run_under((3, 2), pos) is None

    def test_cyclic_wraps(self):
        assert is_cyclic_under([(0, 2)], (0, 1, 2))  # complement {1} is an arc
        assert not is_cyclic_under([(0, 2)], (0, 1, 2, 3))
        pos = positions((3, 0, 1, 4, 2))
        assert run_under((0, 1), pos, cyclic=True) == (1, 2)
        assert run_under((3, 2), pos, cyclic=True) == (4, 2)  # wraps: starts after its gap
        assert run_under((0, 3, 2), pos, cyclic=True) == (4, 3)
        assert run_under((3, 1), pos, cyclic=True) is None
        assert run_under((0, 2), pos, cyclic=True) is None

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            is_unimodal_under([(0,)], (0, 0, 1))

    @given(st.integers(1, 6), st.integers(0, 2**20))
    @settings(max_examples=80, deadline=None)
    def test_unimodal_implies_cyclic(self, n, bits):
        rng = np.random.default_rng(bits)
        order = tuple(rng.permutation(n).tolist())
        sets = [tuple(np.nonzero(rng.random(n) < 0.5)[0].tolist()) for _ in range(3)]
        if is_unimodal_under(sets, order):
            assert is_cyclic_under(sets, order)

