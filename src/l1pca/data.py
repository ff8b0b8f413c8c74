"""Synthetic instance generation, dataset ingestion, and trace export.

The generator follows a fixed-effect model: samples are points on a random
K-dimensional subspace (centered uniform coordinates against an
orthonormalized Gaussian basis) plus Laplace noise of prescribed variance.
Streams for the basis, the coordinates, and the noise are split from one
seed with a counter-based generator, so changing the noise level never
perturbs the basis.

Sparse labeled text is checked in blocks of about ``_BLOCK_BYTES`` of whole
lines; a block that passes the check is converted by one Matrix Market read
on the calling thread, and the others token by token.  The check
(``_tokens``) is the only scan of a block's bytes before that read: it also
returns where each token's separator stands, whether a space stands before
a LF and whether a token starts with a plus, from which ``_convert`` builds
the reader's input, and ``read_sparse_labeled`` counts the block's lines
from its labels.  Importing this module loads no ``scipy.io``: the first
block of sparse text that takes the one-pass parse binds its Matrix Market
reader (``_array_reader``).
"""

from __future__ import annotations

import functools
import io
import json
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._args import count, finite
from .errors import InvalidInputError, ParseError, PreconditionError
from .linalg import seeded_rng, thin_svd
from .model import ProblemInstance
from .solvers import IterateTrace

_STREAM_BASIS = 1
_STREAM_COORDS = 2
_STREAM_NOISE = 3

_DENSE_MAGIC = b"L1PCABIN"


@dataclass
class FixedEffectSpec:
    """Dimensions, Laplace noise scale (variance sigma^2), and seed."""

    n: int
    d: int
    K: int
    sigma: float
    seed: int = 0

    def __post_init__(self):
        self.n, self.d, self.K = (count(name, getattr(self, name)) for name in ("n", "d", "K"))
        self.sigma = finite("FixedEffectSpec", "sigma", self.sigma)
        if self.n < 1 or self.d < 1 or not (1 <= self.K <= min(self.n, self.d)):
            raise PreconditionError("need n, d >= 1 and 1 <= K <= min(n, d)")
        if self.sigma < 0.0:
            raise PreconditionError(f"sigma must be nonnegative, got {self.sigma!r}")


def _laplace(rng: np.random.Generator, shape: tuple[int, ...], sigma: float) -> np.ndarray:
    # inverse-CDF sampling; scale b = sigma / sqrt(2) gives variance sigma^2
    b = sigma / np.sqrt(2.0)
    u = rng.random(shape)
    v = u - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(v), np.finfo(np.float64).tiny)
    return -b * np.sign(v) * np.log(mag)


def gen_fixed_effect(spec: FixedEffectSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate (X, U, Z): noisy data, ground-truth basis, noiseless part.

    The basis is the orthonormal polar factor of a standard normal matrix;
    the noiseless columns are centered uniform coordinates mapped through
    it, so they sum to zero and lie in the basis span exactly.
    """
    n, d, K = spec.n, spec.d, spec.K
    for attempt in range(4):
        s = thin_svd(seeded_rng(spec.seed, _STREAM_BASIS, attempt).standard_normal((d, K)))
        if s.sigma[-1] > 1e-10 * max(s.sigma[0], 1.0):
            break
    else:  # pragma: no cover - repeated exact rank deficiency
        raise InvalidInputError("basis draw was rank deficient after 3 retries")
    U = s.U @ s.V.T
    rng_a = seeded_rng(spec.seed, _STREAM_COORDS)
    A = rng_a.random((K, n))
    Z = U @ (A - A.mean(axis=1, keepdims=True))
    rng_e = seeded_rng(spec.seed, _STREAM_NOISE)
    E = _laplace(rng_e, (d, n), spec.sigma)
    return Z + E, U, Z


# ---------------------------------------------------------------------------
# sparse labeled text format: one sample per line, "label index:value ...",
# indices 1-based strictly ascending and below 2^63, absent features zero

#: indices are stored as int64
_INDEX_LIMIT = 2**63
# The one-pass grammar: lines "NUM( DIGITS:NUM)* ?" joined by LF, where NUM is
# [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)? and D a digit.  The Matrix Market reader stops
# at the first byte that cannot extend a number (1.2.3 reads 1.2, 1e and 1-2 read
# 1), so only a block that is all such tokens may go to it.  A block is checked on
# its bytes that are not digits, as classes: _ESIGN is a sign after an exponent mark.
_LF, _SP, _COLON, _SIGN, _ESIGN, _DOT, _EXP, _BAD = range(8)
_CLASS = np.full(256, _BAD, np.uint8)
_CLASS[list(b"\n :+-.eE")] = _LF, _SP, _COLON, _SIGN, _SIGN, _DOT, _EXP, _EXP
#: (class, class of the next byte that is not a digit): how many digits may stand
#: between them; a pair not listed breaks the grammar
_FOLLOWS = {
    **{
        (start, nxt): digits
        for start in (_LF, _COLON)  # a label or a value begins
        for nxt, digits in ((_SIGN, "none"), (_DOT, "any"), (_EXP, "some"), (_SP, "some"), (_LF, "some"))
    },
    (_SP, _COLON): "some", (_SP, _LF): "none",  # a space before an index, or before LF
    (_SIGN, _DOT): "any", (_SIGN, _EXP): "some", (_SIGN, _SP): "some", (_SIGN, _LF): "some",
    (_DOT, _EXP): "any", (_DOT, _SP): "any", (_DOT, _LF): "any",
    (_EXP, _ESIGN): "none", (_EXP, _SP): "some", (_EXP, _LF): "some",
    (_ESIGN, _SP): "some", (_ESIGN, _LF): "some",
}


def _pair_table(follows) -> np.ndarray:
    ok = np.zeros((8, 8, 2), bool)  # [class, next class, any digit between them]
    for pair, digits in follows.items():
        ok[pair] = digits != "some", digits != "none"
    return ok.ravel()


_PAIR_OK = _pair_table(_FOLLOWS)
#: one token per line, as the Matrix Market body below the header
_TOKEN_LINES = bytes.maketrans(b" :", b"\n\n")
_MM_HEADER = b"%%%%MatrixMarket matrix array real general\n%d 1\n"
#: below this every integer is a float, so an index read as a float is exact
_EXACT_INDEX = 2**53
#: bytes per block of whole lines that ``_tokens`` checks and one reader call converts.
#: Each call has a fixed cost (it parses a header), but the block's temporaries grow with
#: it: on the cluster-sparse benchmark (a 6.4 MB file, 2-vCPU KVM guest), 512 KiB blocks
#: read that file in 0.96 of the time of 256 KiB blocks (median of 60 alternating reads),
#: and 1 MiB blocks peaked 4 MB of RSS higher
_BLOCK_BYTES = 1 << 19
#: empty (labels, indices, values, counts), so a file without lines concatenates
_NO_LINES = (np.empty(0), np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))


def _blocks(fh):
    """The file's bytes in blocks of whole lines: each read of ``_BLOCK_BYTES`` up to its last
    LF, after the rest of the read before it, or a longer line whole."""
    held = []
    for chunk in iter(lambda: fh.read(_BLOCK_BYTES), b""):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*held, memoryview(chunk)[:cut]])
            held = [chunk[cut:]]
        else:
            held.append(chunk)
    last = b"".join(held)
    if last:
        yield last


def _tokens(blk: bytes):
    """What the one pass over ``blk`` finds, or None where ``blk`` breaks the one-pass grammar:
    (kind, neg, seps, spaced, plus).  For each token, ``kind`` is the class of the byte
    before it (_LF before a label, _SP before an index, _COLON before a value), ``neg``
    whether it starts with a minus and ``seps`` the position of that byte (-1 before the
    first token); ``spaced`` says whether a space stands before a LF, and ``plus`` whether
    a token starts with a plus.  ``_convert`` builds its Matrix Market body from these, so
    no other pass scans the block's bytes before the read.

    Each byte that is not a digit must be allowed after the one before it (a LF
    stands before the block and after it), with the digits between them that
    ``_FOLLOWS`` allows, and a point needs a digit beside it.  A space before a
    LF ends a line's last token and stands before none.
    """
    b = np.frombuffer(blk, np.uint8)
    at = np.flatnonzero(b - 48 > 9)  # the bytes that are not ASCII digits
    pos = np.concatenate(([-1], at, [b.size]))
    cls = np.concatenate(([_LF], _CLASS[b[at]], [_LF]))
    cls[1:][(cls[1:] == _SIGN) & (cls[:-1] == _EXP)] = _ESIGN
    digits = np.diff(pos) > 1
    if not _PAIR_OK[(cls[:-1] * 8 + cls[1:]) * 2 + digits].all():
        return None
    dot = np.flatnonzero(cls == _DOT)
    if not (digits[dot - 1] | digits[dot]).all():
        return None
    space_lf = (cls[:-1] == _SP) & (cls[1:] == _LF)
    sep = np.flatnonzero((cls[:-1] <= _COLON) & ~space_lf)
    seps = pos[sep]
    first = b[seps + 1]
    return cls[sep], first == 45, seps, bool(space_lf.any()), bool((first == 43).any())


def _lines(v: np.ndarray, kind: np.ndarray):
    """(labels, 1-based indices, values, features per line) of whole lines from their
    tokens' numbers v and classes ``kind``, or None where an index reaches 2^53 or does
    not ascend.  Each line is a label, then index and value tokens in turn, so the index
    tokens are gathered once and each value stands right after its index.  Indices arrive
    as floats: they are exact below 2^53, and a line's features are 1-based and ascending
    iff its first index exceeds 0 and every other one the index before it."""
    at = np.flatnonzero(kind == _SP)
    i = v[at]
    first = kind[at - 1] == _LF  # an index right after its line's label
    if i.max(initial=0.0) >= _EXACT_INDEX or i.min(initial=1.0) <= 0.0 or not (first[1:] | (i[1:] > i[:-1])).all():
        return None
    label = np.flatnonzero(kind == _LF)
    counts = (np.diff(label, append=kind.size) - 1) >> 1
    return v[label], i.astype(np.int64), v[at + 1], counts


@functools.cache
def _array_reader():
    """The callable that reads a Matrix Market array from a binary stream, bound on first use.

    ``scipy.io.mmread`` starts fast_matrix_market's worker threads on every call, and takes no
    thread count; a block is one chunk of the reader's, so the threads add start-up and no
    parallel work.  scipy's private cursor opens the stream with one thread instead; a scipy
    without it falls back to ``mmread``, which reads the same values.  Importing ``scipy.io``
    costs about 18 ms per process, and only sparse text needs it.
    """
    try:
        from scipy.io._fast_matrix_market import _get_read_cursor, _read_body_array
    except ImportError:  # pragma: no cover - a scipy without the private cursor
        from scipy.io import mmread

        return mmread
    return lambda stream: _read_body_array(_get_read_cursor(stream, 1)[0])


def _spaced_body(head: bytes, text) -> bytes:
    """The Matrix Market body of block text in which a space stands before a LF: those spaces
    go, which moves every separator after them, and ``bytes.translate`` then puts each token
    on a line of its own behind ``head``."""
    text = bytes(text).replace(b" \n", b"\n").removesuffix(b" ")
    return head + text.translate(_TOKEN_LINES)


def _convert(text, kind: np.ndarray, neg: np.ndarray, seps: np.ndarray, spaced: bool, plus: bool):
    """The parts (as ``_lines`` returns them) of block text from what ``_tokens`` found in it,
    or None where ``_lines`` refuses.

    One ``_array_reader`` call converts every token of the block as an N x 1 Matrix Market
    array: its reader (fast_float) rounds as ``float()`` does, but reads ``-0`` and
    ``-1e-400`` as +0.0, so each number takes its sign from its first byte.  Without a space
    before a LF, the body is the text copied once behind the header, in the buffer of an
    ``io.BytesIO``, with a LF written in place at each of ``seps``; with one,
    ``_spaced_body`` builds it.  A leading plus, which the reader refuses, goes only where
    ``plus`` says a token has one; an exponent's stays.
    """
    head = _MM_HEADER % kind.size
    if spaced:
        body = _spaced_body(head, text)
    else:
        body = io.BytesIO()
        body.write(head)
        body.write(text)
        np.frombuffer(body.getbuffer(), np.uint8)[len(head) + seps] = 10  # seps[0] = -1: the header's LF
        body = body.getvalue()
    if plus:
        body = body.replace(b"\n+", b"\n")
    v = _array_reader()(io.BytesIO(body))[:, 0]
    del body
    np.abs(v, out=v)
    np.negative(v, out=v, where=neg)
    return _lines(v, kind)


def _parse_block_slow(blk: bytes, lineno: int):
    """The same parse token by token, and the last line number.

    Lines split where text mode splits them (LF, CRLF, a lone CR) and are
    numbered from ``lineno + 1``; the first bad token raises a ParseError
    naming its line.
    """
    labels, indices, data, counts = [], [], [], []
    for lineno, line in enumerate(blk.splitlines(), start=lineno + 1):
        try:
            parts = line.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {line[exc.start]:#04x} is not UTF-8", lineno) from None
        if not parts:
            continue
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise ParseError(f"bad label {parts[0]!r}", lineno) from None
        prev = 0
        for tok in parts[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"expected index:value, got {tok!r}", lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"non-numeric token {tok!r}", lineno) from None
            if idx <= prev:
                raise ParseError(f"indices must be 1-based and ascending, got {idx} after {prev}", lineno)
            if idx >= _INDEX_LIMIT:
                raise ParseError(f"index {idx} too large (indices must be below 2^63)", lineno)
            prev = idx
            indices.append(idx)
            data.append(val)
        counts.append(len(parts) - 1)
    return (labels, np.array(indices, np.int64), data, np.array(counts, np.int64)), lineno


def read_sparse_labeled(path, K: int = 1, n_features: int | None = None) -> ProblemInstance:
    """Parse a sparse labeled text file into a problem instance.

    The feature dimension is the largest index seen unless ``n_features``, an
    integer, overrides it (datasets may have trailing absent features).  Malformed
    lines, undecodable bytes included, raise ParseError with their 1-based
    line number.  A block of ASCII text with LF line ends, single spaces (one
    of them perhaps before a LF) and decimal numbers (digits, sign, point,
    exponent) whose indices lie below 2^53 is checked by vectorized passes
    (``_tokens``, the one scan of its bytes before the read) and converted by
    one Matrix Market read (``_convert``); its lines are counted from its
    labels and the blank lines at its end.  Every other block is parsed
    token by token, with the same result.
    """
    n_features = None if n_features is None else count("n_features", n_features)
    parts = []
    lineno = 0
    with open(path, "rb") as fh:
        for blk in _blocks(fh):
            text = memoryview(blk)[: len(blk.rstrip(b"\n"))]  # no copy held beside blk
            tokens = _tokens(text)
            part = None if tokens is None else _convert(text, *tokens)
            if part is None:
                part, lineno = _parse_block_slow(blk, lineno)
            else:
                # a checked block's lines end in LF alone, the file's last line perhaps in nothing:
                # one between each two labels, and those rstrip took off
                lineno += part[0].size - 1 + len(blk) - len(text)
            parts.append(part)
    labels, indices, data, counts = (np.concatenate(col) for col in zip(_NO_LINES, *parts))
    n = labels.size
    if n == 0:
        raise ParseError("empty file", 1)
    max_index = int(indices.max(initial=0))
    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise PreconditionError(f"n_features={d} below largest index {max_index}")
    if d == 0:
        raise PreconditionError("no features present; pass n_features explicitly")
    indices -= 1
    X = sp.csc_matrix((data, indices, np.concatenate([[0], np.cumsum(counts)])), shape=(d, n))
    return ProblemInstance(X=X, K=K, labels=labels)


def write_sparse_labeled(path, X, labels) -> None:
    """Serialize a matrix (columns = samples) back to the text format."""
    Xc = sp.csc_matrix(X)
    labels = np.asarray(labels)
    if labels.shape != (Xc.shape[1],):
        raise PreconditionError("labels must have one entry per column")
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(Xc.shape[1]):
            lo, hi = Xc.indptr[j], Xc.indptr[j + 1]
            toks = [_g(labels[j])]
            for r, v in zip(Xc.indices[lo:hi], Xc.data[lo:hi]):
                toks.append(f"{r + 1}:{_g(v)}")
            fh.write(" ".join(toks) + "\n")


# ---------------------------------------------------------------------------
# trace export (CSV and JSON, floats at 17 significant digits)

#: (column, IterateTrace attribute) for each trace column, in file order,
#: which is also the argument order of IterateTrace.append
_TRACE_COLUMNS = (
    ("k", "k"),
    ("h_value", "h_value"),
    ("psi_value", "psi_value"),
    ("delta_P_norm", "delta_P_norm"),
    ("delta_Q_norm", "delta_Q_norm"),
    ("delta_C_norm", "delta_C_norm"),
    ("wall_time_seconds", "wall_time"),
    ("sign_flips", "sign_flips"),
)
_CSV_COLUMNS = tuple(column for column, _ in _TRACE_COLUMNS)
#: traces written before ``sign_flips`` end at ``wall_time_seconds``
_LEGACY_COLUMNS = _CSV_COLUMNS[:-1]
_INT_COLUMNS = ("k", "sign_flips")


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _trace_rows(trace: IterateTrace):
    """Each record's cells as text in column order: the counts as integers, the rest via ``_g``."""
    cols = [(getattr(trace, attr), str if column in _INT_COLUMNS else _g) for column, attr in _TRACE_COLUMNS]
    for i in range(len(trace)):
        yield [fmt(col[i]) for col, fmt in cols]


def _trace_record(trace: IterateTrace, cells: dict, lineno: int, where: str = "") -> None:
    """Append one record read from line ``lineno`` of a file, or raise a ParseError there, after
    ``where``, naming a cell that is not a count or a number; a legacy record's flip count comes
    from ``delta_P_norm``, which is 2 sqrt(flips) with a correctly rounded sqrt.  A JSON count
    that is a float (1.5, or 2.0) or a bool, and a JSON bool anywhere, is refused, not rounded."""
    record = {}
    for c in _CSV_COLUMNS if "sign_flips" in cells else _LEGACY_COLUMNS:
        try:
            if isinstance(cells[c], bool) or (c in _INT_COLUMNS and isinstance(cells[c], float)):
                raise TypeError
            record[c] = int(cells[c]) if c in _INT_COLUMNS else float(cells[c])
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if c in _INT_COLUMNS else "a number"
            raise ParseError(f"{where}column {c!r} holds {cells[c]!r}, not {kind}", lineno) from None
    if "sign_flips" not in record:
        try:
            record["sign_flips"] = round(record["delta_P_norm"] ** 2 / 4.0)
        except (ValueError, OverflowError):
            bad = cells["delta_P_norm"]
            raise ParseError(f"{where}column 'delta_P_norm' holds {bad!r}, not 2 sqrt(flips)", lineno) from None
    trace.append(*(record[c] for c in _CSV_COLUMNS))


def write_trace(trace: IterateTrace, path, fmt: str = "csv") -> None:
    """Write a trace as CSV or JSON; floats keep 17 significant digits."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(_CSV_COLUMNS) + "\n")
            for row in _trace_rows(trace):
                fh.write(",".join(row) + "\n")
    elif fmt == "json":
        records = [
            "{" + ", ".join(f'"{column}": {cell}' for column, cell in zip(_CSV_COLUMNS, row)) + "}"
            for row in _trace_rows(trace)
        ]
        body = ",\n    ".join(records)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{\n  "schema_version": 1,\n  "records": [\n    ' + body + "\n  ]\n}\n")
    else:
        raise PreconditionError(f"unknown trace format {fmt!r}")


def read_trace(path) -> IterateTrace:
    """Read a trace written by write_trace (format sniffed from content).

    Files written before the ``sign_flips`` column still read; their flip
    counts are recovered from ``delta_P_norm``.  An empty file is a
    ParseError, and so is a byte that is not UTF-8 or a cell that is not a
    number (at its line), invalid JSON (at its line), and a JSON trace
    without a list of record objects or with a record that lacks a column
    or holds a bad cell (at line 1).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8", raw.count(b"\n", 0, exc.start) + 1) from None
    trace = IterateTrace()
    if text.lstrip().startswith("{"):
        try:
            records = json.loads(text).get("records")
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
        if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
            raise ParseError("expected a 'records' list of objects", 1)
        for i, rec in enumerate(records, start=1):
            missing = [c for c in _LEGACY_COLUMNS if c not in rec]
            if missing:
                raise ParseError(f"record {i} has no {missing[0]!r} column", 1)
            _trace_record(trace, rec, 1, f"record {i}: ")
        return trace
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty file", 1)
    header = tuple(lines[0][1].split(","))
    if header not in (_CSV_COLUMNS, _LEGACY_COLUMNS):
        raise ParseError(f"unexpected trace header {list(header)}", lines[0][0])
    for lineno, ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(header):
            raise ParseError("wrong column count", lineno)
        _trace_record(trace, dict(zip(header, vals)), lineno)
    return trace


# ---------------------------------------------------------------------------
# dense binary matrix format: 8-byte magic + uint32 rows + uint32 cols
# (little endian), then rows*cols float64 little endian in column-major order


def write_dense_matrix(path, M) -> None:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise PreconditionError("expected a 2-d matrix")
    rows, cols = A.shape
    with open(path, "wb") as fh:
        fh.write(_DENSE_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(A.astype("<f8").tobytes(order="F"))


def read_dense_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:8] != _DENSE_MAGIC:
            raise InvalidInputError(f"bad magic {head[:8]!r}; not a dense matrix file")
        if len(head) < 16:
            raise InvalidInputError("truncated dense matrix file")
        rows, cols = struct.unpack("<II", head[8:])
        # a header can claim more than read could allocate: a regular file's
        # size refuses the claim first
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and rows * cols * 8 > st.st_size - 16:
            raise InvalidInputError("truncated dense matrix file")
        payload = fh.read(rows * cols * 8)
    if len(payload) != rows * cols * 8:
        raise InvalidInputError("truncated dense matrix file")
    flat = np.frombuffer(payload, dtype="<f8")
    return np.asarray(flat.reshape((rows, cols), order="F"), dtype=np.float64)
