import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from l1pca import data
from l1pca.data import (
    FixedEffectSpec,
    gen_fixed_effect,
    read_dense_matrix,
    read_sparse_labeled,
    read_trace,
    write_dense_matrix,
    write_sparse_labeled,
    write_trace,
)
from l1pca.errors import InvalidInputError, ParseError, PreconditionError
from l1pca.model import ProblemInstance
from l1pca.solvers import IterateTrace, SolverConfig, draw_start, solve


class TestFixedEffect:
    def test_centering_and_span(self):
        X, U, Z = gen_fixed_effect(FixedEffectSpec(n=80, d=30, K=4, sigma=0.3, seed=1))
        assert np.abs(Z.sum(axis=1)).max() <= 1e-10 * 80
        assert np.linalg.norm(Z - U @ (U.T @ Z)) <= 1e-10
        assert np.linalg.norm(U.T @ U - np.eye(4)) <= 1e-10

    def test_noiseless(self):
        X, _, Z = gen_fixed_effect(FixedEffectSpec(n=20, d=10, K=2, sigma=0.0, seed=2))
        assert np.array_equal(X, Z)

    def test_deterministic(self):
        spec = FixedEffectSpec(n=30, d=12, K=3, sigma=0.7, seed=3)
        X1, U1, Z1 = gen_fixed_effect(spec)
        X2, U2, Z2 = gen_fixed_effect(spec)
        assert np.array_equal(X1, X2) and np.array_equal(U1, U2) and np.array_equal(Z1, Z2)

    def test_noise_stream_independent_of_sigma(self):
        _, U1, Z1 = gen_fixed_effect(FixedEffectSpec(n=30, d=12, K=3, sigma=0.1, seed=4))
        _, U2, Z2 = gen_fixed_effect(FixedEffectSpec(n=30, d=12, K=3, sigma=2.0, seed=4))
        assert np.array_equal(U1, U2) and np.array_equal(Z1, Z2)

    def test_laplace_variance(self):
        sigma = 0.8
        X, _, Z = gen_fixed_effect(FixedEffectSpec(n=1000, d=1000, K=3, sigma=sigma, seed=5))
        noise = X - Z
        assert noise.size >= 10**6
        assert abs(noise.var() - sigma**2) <= 0.05 * sigma**2

    def test_bad_spec(self):
        with pytest.raises(PreconditionError):
            FixedEffectSpec(n=5, d=5, K=9, sigma=0.1)
        with pytest.raises(PreconditionError):
            FixedEffectSpec(n=5, d=5, K=2, sigma=-0.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(PreconditionError, match=f"FixedEffectSpec needs a finite sigma, got {sigma}"):
            FixedEffectSpec(n=5, d=5, K=2, sigma=sigma)


class TestSparseLabeled:
    def test_walkthrough_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("+1 1:0.5 3:-2\n")
        inst = read_sparse_labeled(p)
        assert inst.X.shape == (3, 1)
        assert np.allclose(inst.X.toarray().ravel(), [0.5, 0.0, -2.0])
        assert inst.labels[0] == 1.0

    def test_disjoint_indices(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("1 1:2.0\n-1 2:3.0\n")
        inst = read_sparse_labeled(p)
        assert inst.X.shape == (2, 2)
        assert np.allclose(inst.X.toarray(), [[2.0, 0.0], [0.0, 3.0]])

    def test_empty_feature_list(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1 1:1.0\n-1\n")
        inst = read_sparse_labeled(p)
        assert np.allclose(inst.X.toarray()[:, 1], 0.0)
        assert inst.labels[1] == -1.0

    def test_malformed_token_has_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1.0\n1 2:abc\n")
        with pytest.raises(ParseError) as err:
            read_sparse_labeled(p)
        assert err.value.line_number == 2

    def test_non_ascending_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1 1:1.0\n1 1:1.0\n1 3:1.0 2:4.0\n")
        with pytest.raises(ParseError) as err:
            read_sparse_labeled(p)
        assert err.value.line_number == 3

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("")
        with pytest.raises(ParseError):
            read_sparse_labeled(p)

    def test_feature_override(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 1:1.0\n")
        inst = read_sparse_labeled(p, n_features=5)
        assert inst.X.shape == (5, 1)
        with pytest.raises(PreconditionError):
            read_sparse_labeled(p, n_features=0)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal((7, 9))
        dense[np.abs(dense) < 0.9] = 0.0
        X = sp.csc_matrix(dense)
        labels = np.where(rng.random(9) < 0.5, -1.0, 1.0)
        p = tmp_path / "h.txt"
        write_sparse_labeled(p, X, labels)
        inst = read_sparse_labeled(p, n_features=7)
        assert (inst.X != X).nnz == 0
        assert np.array_equal(inst.labels, labels)


def _parse_reference(path, K=1, n_features=None):
    """The token-by-token parser that read_sparse_labeled replaced, kept as its specification.

    It rejects an index of 2^63 or more (stored indices are int64) with a
    ParseError naming the line, as read_sparse_labeled does.
    """
    labels, data, indices, indptr = [], [], [], [0]
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
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
                if idx >= 2**63:
                    raise ParseError(f"index {idx} too large (indices must be below 2^63)", lineno)
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            max_index = max(max_index, prev)
            indptr.append(len(data))
    n = len(labels)
    if n == 0:
        raise ParseError("empty file", 1)
    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise PreconditionError(f"n_features={d} below largest index {max_index}")
    if d == 0:
        raise PreconditionError("no features present; pass n_features explicitly")
    X = sp.csc_matrix((data, indices, indptr), shape=(d, n))
    return ProblemInstance(X=X, K=K, labels=np.asarray(labels))


def _outcome(parse, path, **kw):
    """The arrays a parse produces, bytes and dtype, or the error it raises."""
    try:
        inst = parse(path, **kw)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc), getattr(exc, "line_number", None)
    X = inst.X
    return X.shape, [(a.dtype.str, a.tobytes()) for a in (X.indices, X.data, X.indptr, inst.labels)]


_FIRST = "1 1:0.5 3:-2\n"

#: file contents, each read by both parsers: odd but valid tokens, malformed
#: tokens on line 2, and line layout
_PARSE_CASES = {
    "plus_sign": _FIRST + "-1 +3:1\n",
    "underscore": _FIRST + "-1 1_0:2\n",
    "exponent": _FIRST + "-1 2:1e3\n",
    "negative_zero": _FIRST + "-1 2:-0\n",
    "non_ascii_digits": _FIRST + "-1 \u0663:\u0661\u0662\n",
    "inf_nan_values": _FIRST + "-1 1:inf 2:nan 4:-inf\n",
    "beyond_int32": _FIRST + "-1 3000000000:1\n",
    "empty_index": _FIRST + "-1 :1\n",
    "empty_value": _FIRST + "-1 1:\n",
    "two_colons": _FIRST + "-1 1:2:3\n",
    "letter_index": _FIRST + "-1 a:1\n",
    "float_index": _FIRST + "-1 1.5:2\n",
    "bare_number": _FIRST + "-1 5\n",
    "bare_after_good": _FIRST + "-1 1:1 5\n",
    "descending": _FIRST + "-1 2:1 1:1\n",
    "repeated": _FIRST + "-1 2:1 2:1\n",
    "zero_index": _FIRST + "-1 0:1\n",
    "negative_index": _FIRST + "-1 -1:2\n",
    "hex_index": _FIRST + "-1 0x10:2\n",
    "beyond_int64": _FIRST + "-1 9223372036854775808:1\n",
    "twenty_digit_index": _FIRST + "-1 99999999999999999999:1\n",
    "twenty_digit_then_bad_line": _FIRST + "-1 99999999999999999999:1\n1 a:1\n",
    "twenty_digit_then_bad_token": _FIRST + "-1 99999999999999999999:1 5:1\n",
    "bad_label": _FIRST + "x 1:1\n",
    "blank_lines_before_bad": _FIRST + "\n  \n\t\n-1 1:2:3\n",
    "no_trailing_newline": _FIRST + "-1 2:3",
    "crlf": "1 1:1\r\n-1 2:3\r\n",
    "label_only_lines": "1\n-1 2:3\n2\n",
    "only_labels": "1\n-1\n",
    "empty": "",
    "blank_only": "\n \n",
    # within the one-pass alphabet, but only the token-by-token parse can judge them
    "two_points": _FIRST + "-1 1:1.5.5\n",
    "bare_exponent": _FIRST + "-1 1:e\n",
    "bare_point": _FIRST + "-1 1:.\n",
    "cut_exponent": _FIRST + "-1 1:1e+\n",
    "sign_label": _FIRST + "- 1:1\n",
    "exponent_index": _FIRST + "-1 1e0:5\n",
    "minus_zero_index": _FIRST + "-1 -0:1\n",
    "plus_zero_index": _FIRST + "-1 +0:1\n",
    "label_with_colon": _FIRST + "1:2 3:4\n",
    "blank_line_mid_file": _FIRST + "\n-1 2:3\n",
    "leading_spaces": _FIRST + "  -1 2:3\n",
    "lone_cr": _FIRST + "-1 2:3\r1 1:1\r\r-1 a:1\n",
    "tab_separated": _FIRST + "-1\t2:3\n",
    "unicode_spaces": _FIRST + "-1\x0c2:3\u00852:4\n",
    "byte_order_mark": "\ufeff" + _FIRST,
    # within the alphabet and valid
    "leading_zero_index": _FIRST + "-1 01:2\n",
    "space_runs": _FIRST + "-1   1:2    3:4\n",
    "trailing_space": _FIRST + "-1 1:2 \n",
    "trailing_space_after_label": _FIRST + "3 \n-1 2:3\n",
    "trailing_space_at_end": _FIRST + "-1 2:3 ",
    "two_trailing_spaces": _FIRST + "-1 1:2  \n",
    "trailing_space_before_crlf": _FIRST + "-1 1:2 \r\n",
    "space_before_index_and_lf": _FIRST + "-1 2 \n",
    "number_forms": _FIRST + "1e0 1:1E-5 2:+.5 3:-5.\n",
    "overflow_underflow": _FIRST + "1e999 1:-1e999 2:1e-400 3:4.9e-324 4:2.4703282292062328e-324\n",
    "largest_index": _FIRST + "-1 9223372036854775807:1\n",
    # signs the number reader loses on zeros: each number takes its sign from its first byte
    "negative_zero_forms": _FIRST + "-0.0 1:-0.0 2:-.0 3:-0e5 4:-1e-400\n-.0 1:0\n-0e5\n-1e-400 2:-0\n",
    "plus_signs": "+1 1:+0.5 2:+.5e+3\n+0 3:+0\n",
    # rounding: a 40-digit mantissa, and the halfway point between 0 and the least subnormal
    "forty_digits": _FIRST + "1234567890123456789012345678901234567890 1:0.1234567890123456789012345678901234567890e-300\n",
    "halfway_subnormal": _FIRST + "2.4703282292062327e-324 1:-2.4703282292062327e-324 2:2.4703282292062328e-324\n",
    # indices read as floats are exact below 2^53
    "index_two53_minus_1": _FIRST + "-1 9007199254740991:1\n",
    "index_two53": _FIRST + "-1 9007199254740992:1\n",
    "index_two53_plus_1": _FIRST + "-1 9007199254740993:1\n",
    "index_two53_pair": _FIRST + "-1 9007199254740992:1 9007199254740993:2\n",
    # prefixes the number reader would take without an error
    "prefix_two_points": _FIRST + "-1 1:1.2.3\n",
    "prefix_cut_exponent": _FIRST + "-1 1:1e\n",
    "prefix_inner_minus": _FIRST + "-1 1:1-2\n",
    "prefix_label": "1.2.3 1:1\n",
    "prefix_exponent_sign": _FIRST + "-1 1:1e5-3\n",
    "prefix_exponent_point": _FIRST + "-1 1:1e-.5\n",
    "prefix_two_exponents": _FIRST + "-1 1:1e5e5\n",
    "point_only_mantissa": _FIRST + "-1 1:-.e5\n",
    "sign_only_value": _FIRST + "-1 1:-\n",
}


#: cases the one-pass parse takes whole, with no block left to the token-by-token parse
_ONE_PASS_CASES = [
    "exponent", "negative_zero", "negative_zero_forms", "plus_signs", "number_forms", "overflow_underflow",
    "forty_digits", "halfway_subnormal", "index_two53_minus_1", "leading_zero_index", "beyond_int32",
    "label_only_lines", "only_labels", "no_trailing_newline",
    "trailing_space", "trailing_space_after_label", "trailing_space_at_end", "crlf", "trailing_space_before_crlf",
]

#: the one-pass grammar as a regular expression: lines "NUM( DIGITS:NUM)* ?" joined by LF or
#: CRLF; a block's last line may end in the CR of a CRLF whose LF ends the block
_NUM_SPEC = rb"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_LINE_SPEC = rb"%s(?: [0-9]+:%s)* ?" % (_NUM_SPEC, _NUM_SPEC)
_LINES_SPEC = re.compile(rb"%s(?:\r?\n%s)*\r?" % (_LINE_SPEC, _LINE_SPEC))


def _check_tokens(blk: bytes):
    """data._tokens(blk) is None off the grammar, else each token's separator and leading minus,
    the positions of the separators after the first token's, whether a space stands before a
    line end and whether a token starts with a plus; a space before a LF, a CR or the block's
    end stands before no token, nor does a CR."""
    got = data._tokens(blk)
    if _LINES_SPEC.fullmatch(blk) is None:
        assert got is None, blk
        return
    seps = {ord("\n"): data._LF, ord(" "): data._SP, ord(":"): data._COLON}
    space_lf = [k for k, c in enumerate(blk) if c == ord(" ") and blk[k + 1 : k + 2] in (b"\n", b"\r", b"")]
    at = [k for k, c in enumerate(blk) if c in seps and k not in space_lf]
    kind = [data._LF] + [seps[blk[k]] for k in at]
    first = [blk[k + 1 : k + 2] for k in [-1, *at]]
    assert got is not None, blk
    assert [a.tolist() for a in got[:3]] == [kind, [b == b"-" for b in first], at], blk
    assert got[3:] == (bool(space_lf), b"+" in first), blk


def _mutants(valid: str):
    """One byte of ``valid`` replaced by a byte of the one-pass alphabet, a tab or a CR."""
    return st.tuples(
        st.integers(0, len(valid) - 1), st.sampled_from(sorted(set("0123456789.eE+-: \n\t\r")))
    ).map(lambda m: valid[: m[0]] + m[1] + valid[m[0] + 1 :])


class TestParseAgainstReference:
    """read_sparse_labeled gives the reference parser's arrays, or its error, on every input."""

    @pytest.mark.parametrize("name", sorted(_PARSE_CASES))
    def test_case(self, tmp_path, name):
        p = tmp_path / "x.txt"
        p.write_text(_PARSE_CASES[name], encoding="utf-8")
        assert _outcome(read_sparse_labeled, p) == _outcome(_parse_reference, p)

    @pytest.mark.parametrize("name", ["only_labels", "beyond_int32", "twenty_digit_index", "exponent"])
    @pytest.mark.parametrize("n_features", [0, 3, 4, 2**64])
    def test_case_with_n_features(self, tmp_path, name, n_features):
        p = tmp_path / "x.txt"
        p.write_text(_PARSE_CASES[name], encoding="utf-8")
        got = _outcome(read_sparse_labeled, p, n_features=n_features)
        assert got == _outcome(_parse_reference, p, n_features=n_features)

    @pytest.mark.parametrize("name", _ONE_PASS_CASES)
    def test_case_takes_one_pass(self, tmp_path, name):
        p = tmp_path / "x.txt"
        p.write_text(_PARSE_CASES[name], encoding="utf-8")
        expected = _outcome(_parse_reference, p)
        with mock.patch.object(data, "_parse_block_slow", side_effect=AssertionError("fell back")):
            assert _outcome(read_sparse_labeled, p) == expected

    def test_generated_file_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((40, 3000))
        dense[rng.random(dense.shape) < 0.8] = 0.0
        labels = rng.integers(-2, 3, 3000).astype(float)
        p = tmp_path / "big.txt"
        write_sparse_labeled(p, sp.csc_matrix(dense), labels)
        got = _outcome(read_sparse_labeled, p)
        assert got == _outcome(_parse_reference, p)
        assert got[0] == (40, 3000)


#: lines the one-pass parse takes, and lines that send their block to the token-by-token parse:
#: refused by _tokens (1.2.3, a tab, a lone CR, plus signs), or by the index check (descending,
#: at or above 2^53)
_GOOD_LINES = [f"{i % 3 - 1} {i % 5 + 1}:0.5 {i % 5 + 7}:-2.5e-3\n" for i in range(30)]
_ODD_LINES = {
    "two_points": "1 1:1.2.3\n", "tab": "1\t1:2\n", "lone_cr": "1 1:2\r-1 2:3\n",
    "descending": "1 2:1 1:1\n", "index_two53_plus_1": "1 9007199254740993:1\n", "plus": "+1 +2:+3\n",
}


#: lines set at a block cut by ``test_lines_at_the_block_cut``: the one-pass parse takes the first
#: two, and the token-by-token parse raises on the third
_CUT_LINES = {"spaced": b"1 1:2 \n", "plus": b"+1 2:+3 5:+.5e+3\n", "malformed": b"1 1:1.2.3\n"}
_GOOD_CUT_LINE = [b"-1 2:0.5 7:-2.25e-3\n"]


def _lines_of(size: int) -> bytes:
    """Lines of ``_GOOD_CUT_LINE``'s form, ``size`` bytes in all: the last pads its first value
    with zeros."""
    line = _GOOD_CUT_LINE[0]
    count, pad = divmod(size, len(line))
    return line * (count - 1) + line.replace(b":0.5", b":0.5" + b"0" * pad)


def _check_refused_among(tmp_path, block, good):
    # blocks refused by _tokens (1.2.3, a tab, a lone CR) or by the index check (descending,
    # at or above 2^53) among checked ones: the reference's arrays, or its error and line
    odd = _ODD_LINES
    errors = 0
    for first, second in itertools.product(odd, repeat=2):
        for at in (0, 7, 29):
            text = "".join(good[:at] + [odd[first]] + good[at:at + 5] + [odd[second]] + good[at + 5:])
            p = tmp_path / "x.txt"
            p.write_text(text, encoding="utf-8", newline="")
            expected = _outcome(_parse_reference, p)
            with mock.patch.object(data, "_BLOCK_BYTES", block):
                assert _outcome(read_sparse_labeled, p) == expected, (first, second, at)
            errors += isinstance(expected[-1], int)
    assert errors > 50  # most files hold an error, and each names its line


def _stream_opens():
    """A patch that records fast_matrix_market's stream openings: each Matrix Market read of a
    block opens its text once, and the opening's second argument is its thread count."""
    from scipy.io._fast_matrix_market import _fmm_core

    return mock.patch.object(_fmm_core, "open_read_stream", wraps=_fmm_core.open_read_stream)


def _one_thread_reads(opened) -> int:
    """How many of the recorded openings read on one thread."""
    return sum(c.args[1] == 1 for c in opened.call_args_list)


@pytest.fixture(scope="module")
def cluster_file(bench_workloads, tmp_path_factory):
    """The benchmark's cluster-sparse file at seed 1 (6.4 MB)."""
    p = tmp_path_factory.mktemp("cluster") / "cluster.txt"
    write_sparse_labeled(p, *bench_workloads.sparse_clusters(1))
    return p


class TestOnePassParse:
    """The one-pass parse and its token-by-token fallback give the reference parser's outcome."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_mutants("3 1:0.5 3:-2.25e-3\n-1 2:7\n\n+2 1:1 4:1E5 5:.5\n1\n-1 10:2\n"),
           st.sampled_from([1, 12, 40, 1 << 19]))
    def test_one_byte_mutants(self, tmp_path, text, block):
        # small blocks make fast and token-by-token blocks alternate within one file
        p = tmp_path / "x.txt"
        p.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            assert _outcome(read_sparse_labeled, p) == _outcome(_parse_reference, p)

    def test_grammar_on_every_short_block(self):
        # every block of up to 5 bytes over one byte of each class but the bad ones
        for n in range(6):
            for blk in itertools.product(b"1.e-+ :\n\r", repeat=n):
                _check_tokens(bytes(blk))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(list(b"0129.eE-+ :\n\r\tx")), max_size=40).map(bytes))
    def test_grammar_on_longer_blocks(self, blk):
        _check_tokens(blk)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["1", "0.5", "-2.", ".5e-3", "+7E+2", "-0", "1.2.3", "1e", "1-2", "", "-", "."]),
                    min_size=1, max_size=12),
           st.lists(st.sampled_from([" ", ":", "\n", "\r\n", " \r\n"]), min_size=11, max_size=11))
    def test_grammar_on_token_sequences(self, toks, seps):
        _check_tokens("".join(t + s for t, s in zip(toks, seps + [""])).encode())

    @pytest.mark.parametrize("block, groups", [
        *[pytest.param(b, None, id=str(b)) for b in (1, 12, 64, 1 << 18, 1 << 19, 1 << 20)],
        pytest.param(64, 1, id="64-group1"), pytest.param(64, 3, id="64-group3"),
        pytest.param(64, 1000, id="64-group1000"), pytest.param(1 << 18, 1, id="262144-group1"),
    ])
    def test_written_files_take_one_pass(self, tmp_path, block, groups):
        # groups: the labels are those of that many classes, each a random float of any exponent
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((30, 200)) * 10.0 ** rng.integers(-300, 300, (30, 200))
        dense[rng.random(dense.shape) < 0.7] = 0.0
        dense[:, ::17] = 0.0  # label-only lines
        X = sp.csc_matrix(dense)
        X.data[::37], X.data[1::37] = 0.0, -0.0  # stored zeros of both signs
        labels = rng.integers(-2, 3, 200) * 0.5
        if groups:
            values = rng.standard_normal(groups) * 10.0 ** rng.integers(-300, 300, groups)
            labels = values[rng.integers(0, groups, 200)]
        labels[::23] = -0.0
        p = tmp_path / "w.txt"
        write_sparse_labeled(p, X, labels)
        text = p.read_text()
        assert ":-0 " in text and "\n-0 " in text and "e-" in text
        expected = _outcome(_parse_reference, p)
        with mock.patch.object(data, "_BLOCK_BYTES", block), \
                mock.patch.object(data, "_parse_block_slow", wraps=data._parse_block_slow) as slow:
            assert _outcome(read_sparse_labeled, p) == expected
        assert slow.call_count == 0

    @pytest.mark.parametrize("block", [1, 12, 40, 64, 100, 1 << 19, 1 << 20])
    def test_refused_blocks_among_checked(self, tmp_path, block):
        _check_refused_among(tmp_path, block, _GOOD_LINES)

    @pytest.mark.parametrize("block, groups", [(1, 1), (1, 1000)])
    def test_refused_blocks_within_groups(self, tmp_path, block, groups):
        # the checked lines carry the labels of that many classes (at most one per line) instead
        # of -1, 0 and 1: one label throughout, or a distinct one on each line (-5e-05 to 75000.0)
        good = []
        for i, line in enumerate(_GOOD_LINES):
            c = i % groups
            good.append(repr((c - 0.5) * 10.0 ** (c % 9 - 4)) + line[line.index(" "):])
        _check_refused_among(tmp_path, block, good)

    @pytest.mark.parametrize("odd", ["descending", "index_two53_plus_1"])
    def test_index_refusal_parses_one_block_slowly(self, tmp_path, odd):
        # a block that passes _tokens but not the index check is parsed token by token, alone
        p = tmp_path / "x.txt"
        p.write_text("".join(_GOOD_LINES[:12] + [_ODD_LINES[odd]] + _GOOD_LINES[12:]), encoding="utf-8")
        expected = _outcome(_parse_reference, p)
        with mock.patch.object(data, "_BLOCK_BYTES", 40), \
                mock.patch.object(data, "_parse_block_slow", wraps=data._parse_block_slow) as slow, \
                _stream_opens() as opened:
            assert _outcome(read_sparse_labeled, p) == expected
            with open(p, "rb") as fh:
                blocks = list(data._blocks(fh))
        at = next(i for i, blk in enumerate(blocks) if _ODD_LINES[odd].encode() in blk)
        read = at + 1 if isinstance(expected[-1], int) else len(blocks)  # an error ends the read
        assert 0 < at < len(blocks) - 1 and _one_thread_reads(opened) == opened.call_count == read
        assert slow.call_count == 1 and slow.call_args.args == (blocks[at], b"".join(blocks[:at]).count(b"\n"))

    def test_cluster_file_reader_calls(self, cluster_file):
        # the benchmark's seed-1 cluster-sparse file: one reader call per block of _BLOCK_BYTES,
        # and every block passes _tokens
        with _stream_opens() as opened:
            inst = read_sparse_labeled(cluster_file)
        assert inst.X.shape == (1500, 3000)
        with open(cluster_file, "rb") as fh:
            checked = [data._tokens(blk.rstrip(b"\n")) is not None for blk in data._blocks(fh)]
        size = cluster_file.stat().st_size
        assert _one_thread_reads(opened) == opened.call_count == sum(checked) == len(checked)
        assert len(checked) == math.ceil(size / data._BLOCK_BYTES)

    def test_cluster_file_blocks_read_on_one_thread(self, cluster_file):
        # each block is one chunk of fast_matrix_market's: worker threads would only add their
        # start-up, so every block is read at parallelism 1, without mmread, and scipy's global
        # thread count stays as it was
        import scipy.io
        from scipy.io import _fast_matrix_market as fmm

        before = fmm.PARALLELISM
        with _stream_opens() as opened, mock.patch.object(scipy.io, "mmread", wraps=scipy.io.mmread) as mmread:
            read_sparse_labeled(cluster_file)
        blocks = math.ceil(cluster_file.stat().st_size / data._BLOCK_BYTES)
        assert [c.args[1] for c in opened.call_args_list] == [1] * blocks
        assert mmread.call_count == 0 and fmm.PARALLELISM == before

    def test_space_before_lf_takes_one_pass(self, tmp_path, cluster_file):
        # LIBSVM files often end lines in "83:1 \n": the seed-1 cluster file so written reads as
        # written without the spaces, with no block left to the token-by-token parse
        spaced = tmp_path / "spaced.txt"
        spaced.write_bytes(cluster_file.read_bytes().replace(b"\n", b" \n"))
        expected = _outcome(read_sparse_labeled, cluster_file)
        with mock.patch.object(data, "_parse_block_slow", wraps=data._parse_block_slow) as slow:
            assert _outcome(read_sparse_labeled, spaced) == expected
        assert slow.call_count == 0

    @pytest.mark.parametrize("line_end", [b"\r\n", b" \r\n"], ids=["crlf", "space_crlf"])
    def test_crlf_takes_one_pass(self, tmp_path, cluster_file, line_end):
        # the seed-1 cluster file with CRLF line ends, with or without a space before each, reads
        # as written, with no block left to the token-by-token parse
        p = tmp_path / "crlf.txt"
        p.write_bytes(cluster_file.read_bytes().replace(b"\n", line_end))
        expected = _outcome(read_sparse_labeled, cluster_file)
        with mock.patch.object(data, "_parse_block_slow", side_effect=AssertionError("fell back")):
            assert _outcome(read_sparse_labeled, p) == expected

    @pytest.mark.parametrize("text", [
        b"1 1:2\r-1 2:3", b"1\r2 1:1", b"1 1:2\r\r", b"1 1:2\r\r\n-1", b"1 1:2\r \n-1", b"\r\n1 1:2", b"1 1:2\n\r",
    ])
    def test_lone_cr_refused(self, text):
        # a CR not right before a LF (or the block's end, where a LF was cut off) breaks the grammar
        assert data._tokens(text) is None

    @pytest.mark.parametrize("block", [12, 1 << 19])
    def test_refused_blocks_among_crlf_lines(self, tmp_path, block):
        _check_refused_among(tmp_path, block, [line.replace("\n", "\r\n") for line in _GOOD_LINES])

    @pytest.mark.parametrize("block", [1, 12, 64, 1 << 19])
    def test_space_before_lf_with_label_only_lines(self, tmp_path, block):
        rng = np.random.default_rng(13)
        dense = rng.standard_normal((30, 200)) * 10.0 ** rng.integers(-300, 300, (30, 200))
        dense[rng.random(dense.shape) < 0.7] = 0.0
        dense[:, ::17] = 0.0  # label-only lines
        labels = rng.integers(-2, 3, 200) * 0.5
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        write_sparse_labeled(plain, sp.csc_matrix(dense), labels)
        text = plain.read_bytes()
        spaced.write_bytes(text.replace(b"\n", b" \n")[:-1])  # the last line ends in its space
        assert re.search(rb"\n[^ ]+ \n", spaced.read_bytes())  # a label-only line with its space
        expected = _outcome(read_sparse_labeled, plain)
        with mock.patch.object(data, "_BLOCK_BYTES", block), \
                mock.patch.object(data, "_parse_block_slow", wraps=data._parse_block_slow) as slow:
            assert _outcome(read_sparse_labeled, spaced) == expected
        assert slow.call_count == 0

    @pytest.mark.parametrize("name, one_pass", [
        ("trailing_space", True), ("trailing_space_after_label", True), ("trailing_space_at_end", True),
        ("two_trailing_spaces", False), ("trailing_space_before_crlf", True), ("space_before_index_and_lf", False),
    ])
    def test_spaced_lines_agree_with_slow_parse(self, tmp_path, name, one_pass):
        # one space before LF or CRLF, after a value or a bare label, takes the one-pass parse; two
        # spaces, or one after an index, leave the block to the token-by-token parse
        p = tmp_path / "x.txt"
        p.write_text(_PARSE_CASES[name], encoding="utf-8", newline="")
        with mock.patch.object(data, "_tokens", return_value=None):
            expected = _outcome(read_sparse_labeled, p)
        with mock.patch.object(data, "_parse_block_slow", wraps=data._parse_block_slow) as slow:
            assert _outcome(read_sparse_labeled, p) == expected
        assert (slow.call_count == 0) == one_pass

    @pytest.mark.parametrize("before, after", [
        pytest.param(b"\n\n\n", b"", id="blank_lines"),
        pytest.param(_CUT_LINES["spaced"], b"", id="spaced_before"),
        pytest.param(b"", _CUT_LINES["spaced"], id="spaced_after"),
        pytest.param(_CUT_LINES["plus"], b"", id="plus_before"),
        pytest.param(b"", _CUT_LINES["plus"], id="plus_after"),
    ])
    @pytest.mark.parametrize("bad", [False, True], ids=["valid", "malformed"])
    def test_lines_at_the_block_cut(self, tmp_path, before, after, bad):
        # the first read of _BLOCK_BYTES ends in ``before``, and the next block starts with ``after``;
        # a malformed line a few lines on names its line as the token-by-token parse does
        p = tmp_path / "x.txt"
        tail = [after, *_GOOD_CUT_LINE * 3, _CUT_LINES["malformed"] if bad else b"", *_GOOD_CUT_LINE * 3]
        p.write_bytes(_lines_of(data._BLOCK_BYTES - len(before)) + before + b"".join(tail))
        with open(p, "rb") as fh:
            blocks = list(data._blocks(fh))
        assert blocks[0].endswith(b"\n" + before) and blocks[1].startswith(after or _GOOD_CUT_LINE[0])
        assert data._tokens(blocks[0].rstrip(b"\n")) is not None
        with mock.patch.object(data, "_tokens", return_value=None):
            expected = _outcome(read_sparse_labeled, p)
        assert _outcome(read_sparse_labeled, p) == expected
        assert isinstance(expected[-1], int) == bad  # a ParseError names its line

    def test_unspaced_blocks_skip_the_spaced_body(self, tmp_path, cluster_file):
        # no block of the seed-1 cluster file has a space before a LF, so none reaches the
        # bytes.replace of _spaced_body; with one on every line, every block does
        spaced = tmp_path / "spaced.txt"
        spaced.write_bytes(cluster_file.read_bytes().replace(b"\n", b" \n"))
        with mock.patch.object(data, "_spaced_body", wraps=data._spaced_body) as body:
            plain = _outcome(read_sparse_labeled, cluster_file)
            assert body.call_count == 0
            assert _outcome(read_sparse_labeled, spaced) == plain
        with open(spaced, "rb") as fh:
            assert body.call_count == len(list(data._blocks(fh)))

    def test_scipy_io_loaded_on_first_read(self, tmp_path):
        # importing the package and its CLI loads no scipy.io (about 18 ms per process);
        # the first read of sparse text does, in a fresh interpreter
        p = tmp_path / "x.txt"
        p.write_text(_FIRST)
        script = (
            "import sys, l1pca, l1pca.cli\n"
            "before = 'scipy.io' in sys.modules\n"
            f"inst = l1pca.data.read_sparse_labeled({str(p)!r})\n"
            "print(before, 'scipy.io' in sys.modules, inst.X.shape)\n"
        )
        src = Path(data.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True", "(3,", "1)"]

    def test_undecodable_byte_names_its_line(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"1 1:2\r\n-1\xc2\xa02:3\n1 1:2\xff\n")
        with pytest.raises(ParseError, match=r"^line 3: byte 0xff is not UTF-8$"):
            read_sparse_labeled(p)


class TestTraceIO:
    def _trace(self):
        tr = IterateTrace()
        tr.append(0, -1.2345678901234567, -1.2, 0.0, 0.0, 0.0, 0.0, 0)
        tr.append(1, -2.3456789012345678e-05, -2.4, 0.1, 0.25, 0.3333333333333333, 0.001234, 3)
        return tr

    def test_csv_schema(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace(self._trace(), p, "csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "k,h_value,psi_value,delta_P_norm,delta_Q_norm,delta_C_norm,wall_time_seconds,sign_flips"
        assert len(lines) == 3

    def test_empty_trace_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_trace(IterateTrace(), p, "csv")
        assert p.read_text().splitlines() == [
            "k,h_value,psi_value,delta_P_norm,delta_Q_norm,delta_C_norm,wall_time_seconds,sign_flips"
        ]

    def test_json_roundtrip_bit_exact(self, tmp_path):
        tr = self._trace()
        p = tmp_path / "t.json"
        write_trace(tr, p, "json")
        back = read_trace(p)
        assert back.k == tr.k
        assert back.h_value == tr.h_value
        assert back.psi_value == tr.psi_value
        assert back.delta_P_norm == tr.delta_P_norm
        assert back.delta_Q_norm == tr.delta_Q_norm
        assert back.delta_C_norm == tr.delta_C_norm
        assert back.wall_time == tr.wall_time
        assert back.sign_flips == tr.sign_flips

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        tr = self._trace()
        p = tmp_path / "t2.csv"
        write_trace(tr, p, "csv")
        back = read_trace(p)
        assert back.h_value == tr.h_value and back.wall_time == tr.wall_time
        assert back.sign_flips == tr.sign_flips

    def test_reads_csv_without_sign_flips(self, tmp_path):
        # a trace written before the sign_flips column: delta_P_norm = 2 sqrt(flips)
        p = tmp_path / "old.csv"
        p.write_text(
            "k,h_value,psi_value,delta_P_norm,delta_Q_norm,delta_C_norm,wall_time_seconds\n"
            "0,-1.5,-1.5,0,0,0,0\n"
            "1,-2.5,-2.25,3.4641016151377544,0.5,3.5,0.001\n"
            "2,-2.75,-2.5,0,0.125,0.5,0.002\n"
        )
        back = read_trace(p)
        assert back.k == [0, 1, 2]
        assert back.delta_P_norm == [0.0, 2.0 * math.sqrt(3), 0.0]
        assert back.wall_time == [0.0, 0.001, 0.002]
        assert back.sign_flips == [0, 3, 0]

    def test_reads_solver_trace_flip_counts(self, tmp_path):
        inst = ProblemInstance(np.random.default_rng(3).standard_normal((8, 20)), 2)
        P0, Q0 = draw_start(inst, 1)
        tr = solve(inst, SolverConfig(method="fpm"), P0, Q0).trace
        assert sum(tr.sign_flips) > 0
        assert tr.delta_P_norm == [2.0 * math.sqrt(f) for f in tr.sign_flips]
        for fmt in ("csv", "json"):
            write_trace(tr, tmp_path / f"t.{fmt}", fmt)
            assert read_trace(tmp_path / f"t.{fmt}").sign_flips == tr.sign_flips

    def test_unknown_format(self, tmp_path):
        with pytest.raises(PreconditionError):
            write_trace(self._trace(), tmp_path / "t.x", "xml")

    def test_csv_golden_bytes(self, tmp_path):
        p = tmp_path / "g.csv"
        write_trace(self._trace(), p, "csv")
        assert p.read_bytes() == (
            b"k,h_value,psi_value,delta_P_norm,delta_Q_norm,delta_C_norm,wall_time_seconds,sign_flips\n"
            b"0,-1.2345678901234567,-1.2,0,0,0,0,0\n"
            b"1,-2.3456789012345677e-05,-2.3999999999999999,0.10000000000000001,0.25,"
            b"0.33333333333333331,0.0012340000000000001,3\n"
        )

    def test_json_golden_bytes(self, tmp_path):
        p = tmp_path / "g.json"
        write_trace(self._trace(), p, "json")
        assert p.read_bytes() == (
            b'{\n  "schema_version": 1,\n  "records": [\n'
            b'    {"k": 0, "h_value": -1.2345678901234567, "psi_value": -1.2, "delta_P_norm": 0, '
            b'"delta_Q_norm": 0, "delta_C_norm": 0, "wall_time_seconds": 0, "sign_flips": 0},\n'
            b'    {"k": 1, "h_value": -2.3456789012345677e-05, "psi_value": -2.3999999999999999, '
            b'"delta_P_norm": 0.10000000000000001, "delta_Q_norm": 0.25, "delta_C_norm": 0.33333333333333331, '
            b'"wall_time_seconds": 0.0012340000000000001, "sign_flips": 3}\n'
            b"  ]\n}\n"
        )

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_empty_file_rejected(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="line 1: empty file"):
            read_trace(p)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"records": [}', "line 1: invalid JSON: Expecting value"),
            ('{\n  "records": [\n    {"k": 0,}\n  ]\n}', "line 3: invalid JSON: Expecting property name"),
            ('{"schema_version": 1}', "line 1: expected a 'records' list of objects"),
            ('{"records": {"k": 0}}', "line 1: expected a 'records' list of objects"),
            ('{"records": [[0, 1]]}', "line 1: expected a 'records' list of objects"),
        ],
        ids=["cut", "trailing_comma", "no_records", "records_object", "record_list"],
    )
    def test_malformed_json_rejected(self, tmp_path, text, message):
        p = tmp_path / "t.json"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_trace(p)
        assert str(err.value).startswith(message)

    def test_json_record_without_column_rejected(self, tmp_path):
        columns = ("k", "h_value", "psi_value", "delta_P_norm", "delta_Q_norm", "delta_C_norm", "wall_time_seconds")
        record = dict.fromkeys(columns, 0)
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"records": [record, {c: 0 for c in columns if c != "h_value"}]}))
        with pytest.raises(ParseError, match="line 1: record 2 has no 'h_value' column"):
            read_trace(p)

    _LEGACY_HEADER = b"k,h_value,psi_value,delta_P_norm,delta_Q_norm,delta_C_norm,wall_time_seconds\n"
    _HEADER = _LEGACY_HEADER[:-1] + b",sign_flips\n"
    _ROW = b"0,-1.5,-1.5,0,0,0,0,0\n"

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            (_HEADER + _ROW + b"x,-2,-2,0,0,0,0,0\n", "line 3: column 'k' holds 'x', not an integer"),
            (
                _HEADER + b"\n" + _ROW + b"1,-2,-2,0,0,0,0,1.5\n",
                "line 4: column 'sign_flips' holds '1.5', not an integer",
            ),
            (_HEADER + _ROW + b"1,-2,nope,0,0,0,0,0\n", "line 3: column 'psi_value' holds 'nope', not a number"),
            (_HEADER + b"1,-2,-2,0,0,0,0\xff,0\n", "line 2: byte 0xff is not UTF-8"),
            (b"k,h_value\n" + _ROW, "line 1: unexpected trace header ['k', 'h_value']"),
            (b"\n" + _HEADER[:-1] + b",extra\n", "line 2: unexpected trace header"),
            (_HEADER + _ROW + b"1,-2,-2,0\n", "line 3: wrong column count"),
            (_LEGACY_HEADER + b"0,-1,-1,inf,0,0,0\n", "line 2: column 'delta_P_norm' holds 'inf', not 2 sqrt(flips)"),
            (_LEGACY_HEADER + b"0,-1,-1,1e200,0,0,0\n", "line 2: column 'delta_P_norm' holds '1e200', not 2 sqrt(flips)"),
            (
                b'{"records": [{"k": null, "h_value": 0, "psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0, '
                b'"delta_C_norm": 0, "wall_time_seconds": 0}]}',
                "line 1: record 1: column 'k' holds None, not an integer",
            ),
            (
                b'{"records": [{"k": 0, "h_value": "x", "psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0,\n'
                b'"delta_C_norm": 0, "wall_time_seconds": 0}]}',
                "line 1: record 1: column 'h_value' holds 'x', not a number",
            ),
            (
                b'{"records": [{"k": 0, "h_value": 0, "psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0, '
                b'"delta_C_norm": 0, "wall_time_seconds": 0, "sign_flips": 0},\n{"k": 1.5, "h_value": 0, '
                b'"psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0, "delta_C_norm": 0, "wall_time_seconds": 0}]}',
                "line 1: record 2: column 'k' holds 1.5, not an integer",
            ),
            (
                b'{"records": [{"k": 0, "h_value": 0, "psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0, '
                b'"delta_C_norm": 0, "wall_time_seconds": 0, "sign_flips": 2.0}]}',
                "line 1: record 1: column 'sign_flips' holds 2.0, not an integer",
            ),
            (
                b'{"records": [{"k": 0, "h_value": 0, "psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0, '
                b'"delta_C_norm": 0, "wall_time_seconds": 0, "sign_flips": true}]}',
                "line 1: record 1: column 'sign_flips' holds True, not an integer",
            ),
            (
                b'{"records": [{"k": 0, "h_value": false, "psi_value": 0, "delta_P_norm": 0, "delta_Q_norm": 0, '
                b'"delta_C_norm": 0, "wall_time_seconds": 0, "sign_flips": 0}]}',
                "line 1: record 1: column 'h_value' holds False, not a number",
            ),
        ],
        ids=["csv_k", "csv_flips_after_blank", "csv_float", "csv_byte", "header", "header_after_blank",
             "column_count", "legacy_inf", "legacy_huge", "json_null", "json_string", "json_float_k",
             "json_float_flips", "json_bool_flips", "json_bool_value"],
    )
    def test_bad_cell_or_line_rejected(self, tmp_path, raw, message):
        p = tmp_path / "t.trace"
        p.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            read_trace(p)
        assert str(err.value).startswith(message)


class TestDenseBinary:
    def test_roundtrip(self, tmp_path):
        M = np.random.default_rng(7).standard_normal((5, 8))
        p = tmp_path / "m.bin"
        write_dense_matrix(p, M)
        assert np.array_equal(read_dense_matrix(p), M)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTAMTRX" + b"\x00" * 16)
        with pytest.raises(InvalidInputError):
            read_dense_matrix(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "m.bin"
        write_dense_matrix(p, np.ones((4, 4)))
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(InvalidInputError, match="truncated dense matrix file"):
            read_dense_matrix(p)

    def test_header_claims_more_than_the_file(self, tmp_path):
        # 2^31 x 2^31 entries: a read of the claimed payload raises OverflowError
        p = tmp_path / "m.bin"
        p.write_bytes(b"L1PCABIN" + struct.pack("<II", 2**31, 2**31) + bytes(8))
        with pytest.raises(InvalidInputError, match="truncated dense matrix file"):
            read_dense_matrix(p)

    def test_truncated(self, tmp_path):
        M = np.ones((4, 4))
        p = tmp_path / "m.bin"
        write_dense_matrix(p, M)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(InvalidInputError):
            read_dense_matrix(p)
