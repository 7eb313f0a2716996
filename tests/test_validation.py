"""Input checks of every public entry point, and of the CLI on bad input.

Each row feeds one entry point a bad alphabet size, a bad window length
or order, an empty array, a 2-d array, a symbol outside Z_k or a symbol
that is not an integer, and pins the exception type and, where given,
the message.
"""

import time

import numpy as np
import pytest

from oseq import tables
from oseq.bounds import empirical_exclusion_audit, ledger_bound, period_upper_bound
from oseq.cli import main
from oseq.constructions import low_pseudoweight_graph
from oseq.errors import DomainError, ResourceCapError
from oseq.graph import (
    DBSubgraph,
    EulerianCircuit,
    build_subgraph,
    edge_graph_of_sequence,
    full_de_bruijn,
)
from oseq.oracle import (
    Direction,
    LocateResult,
    exhaustive_max_period,
    locate,
    verify,
)
from oseq.sequences import OrientableSequence
from oseq.tables import compute_table
from oseq.tuples import (
    TupleKind,
    ZkTuple,
    count_by_doubled_pseudoweight,
    count_tuples,
    enumerate_count,
)

SYM = TupleKind.SYMMETRIC
ALPHABET = "alphabet size must be at least 2, got 1"
WINDOW = "window length must be at least 2, got 1"
TUPLE = "tuple length must be at least 1, got 0"
ORDER = "order must be at least 1, got 0"
RANGE = "symbol out of range for alphabet size 3"
SHAPE = "sequence must be a nonempty 1-d array of symbols"
INTEGERS = "symbols must be integers"
CODES = "edge codes must be integers"
FLAT = np.array([[0, 1], [1, 2]])
D = DomainError

# name: (call, exception type, message or None where only the type is pinned)
ENTRY_POINTS = {
    "ZkTuple-k": (lambda: ZkTuple(1, (0,)), D, ALPHABET),
    "ZkTuple-k0": (lambda: ZkTuple(0, (0,)), D,
                   "alphabet size must be at least 2, got 0"),
    "ZkTuple-empty": (lambda: ZkTuple(3, ()), D, "tuple must have at least one symbol"),
    "ZkTuple-2d": (lambda: ZkTuple(3, FLAT), D, "tuple must be 1-d, got shape (2, 2)"),
    "ZkTuple-range": (lambda: ZkTuple(3, (0, 3)), D,
                      "symbol 3 out of range for alphabet size 3"),
    "ZkTuple-negative": (lambda: ZkTuple(3, (0, -1)), D,
                         "symbol -1 out of range for alphabet size 3"),
    "ZkTuple-float": (lambda: ZkTuple(3, (2.9, 1)), D, "tuple " + INTEGERS),
    "count_tuples-k": (lambda: count_tuples(SYM, 1, 3), D, ALPHABET),
    "count_tuples-n": (lambda: count_tuples(SYM, 3, 0), D, TUPLE),
    "enumerate_count-k": (lambda: enumerate_count(SYM, 1, 3), D, ALPHABET),
    "enumerate_count-n": (lambda: enumerate_count(SYM, 3, 0), D, TUPLE),
    "count_by_doubled_pseudoweight-k": (
        lambda: count_by_doubled_pseudoweight(1, 3, 6), D, ALPHABET),
    "count_by_doubled_pseudoweight-n": (
        lambda: count_by_doubled_pseudoweight(3, 0, 6), D, TUPLE),
    "period_upper_bound-k": (lambda: period_upper_bound(1, 3), D, ALPHABET),
    "period_upper_bound-n": (lambda: period_upper_bound(3, 1), D, WINDOW),
    "ledger_bound-k": (lambda: ledger_bound(1, 3), D, ALPHABET),
    "ledger_bound-n": (lambda: ledger_bound(3, 1), D, WINDOW),
    "period_upper_bound-digits": (lambda: period_upper_bound(10, 4300),
                                  ResourceCapError,
                                  "10**4300 has more than 4300 digits"),
    "ledger_bound-digits": (lambda: ledger_bound(2, 10**9), ResourceCapError,
                            "2**1000000000 has more than 4300 digits"),
    # n past the float range: the digit check must not convert it.
    "period_upper_bound-float-n": (lambda: period_upper_bound(3, 10**400),
                                   ResourceCapError,
                                   f"3**{10**400} has more than 4300 digits"),
    "empirical_exclusion_audit-k": (
        lambda: empirical_exclusion_audit(1, 3), D, ALPHABET),
    "empirical_exclusion_audit-n": (
        lambda: empirical_exclusion_audit(3, 1), D, WINDOW),
    "DBSubgraph-k": (lambda: DBSubgraph(1, 2, np.array([0])), D, ALPHABET),
    "DBSubgraph-order": (lambda: DBSubgraph(3, 0, np.array([0])), D, ORDER),
    "DBSubgraph-2d": (lambda: DBSubgraph(3, 2, FLAT), D,
                      "edges must be 1-d, got shape (2, 2)"),
    "DBSubgraph-range": (lambda: DBSubgraph(3, 2, np.array([0, 27])), D,
                         "edge code out of range"),
    "DBSubgraph-float": (lambda: DBSubgraph(2, 1, [0.5, 1.7]), D, CODES),
    "DBSubgraph-strings": (lambda: DBSubgraph(2, 1, ["1", "2"]), D, CODES),
    "EulerianCircuit-float": (lambda: EulerianCircuit(2, 1, [1.5, 2.2], (0,)), D,
                              CODES),
    "build_subgraph-k": (lambda: build_subgraph(1, 2, [(0, 0, 0)]), D, ALPHABET),
    "build_subgraph-order": (lambda: build_subgraph(3, 0, [(0,)]), D, ORDER),
    "build_subgraph-2d": (lambda: build_subgraph(3, 2, np.zeros((2, 3, 2), int)),
                          D, "edge must be 1-d, got shape (3, 2)"),
    "build_subgraph-range": (lambda: build_subgraph(3, 2, [(0, 0, 3)]), D,
                             "symbol 3 out of range for alphabet size 3"),
    "DBSubgraph-contains-float": (lambda: (0.7, 1) in full_de_bruijn(3, 1), D,
                                  "edge " + INTEGERS),
    "full_de_bruijn-k": (lambda: full_de_bruijn(1, 2), D, ALPHABET),
    "full_de_bruijn-order": (lambda: full_de_bruijn(3, 0), D, ORDER),
    "edge_graph_of_sequence-k": (lambda: edge_graph_of_sequence([0, 0, 0], 2, 1),
                                 D, ALPHABET),
    "edge_graph_of_sequence-n": (lambda: edge_graph_of_sequence([0, 1, 2], 1, 3),
                                 D, WINDOW),
    "edge_graph_of_sequence-empty": (lambda: edge_graph_of_sequence([], 2, 3),
                                     D, SHAPE),
    "edge_graph_of_sequence-2d": (lambda: edge_graph_of_sequence(FLAT, 2, 3), D, SHAPE),
    "edge_graph_of_sequence-range": (lambda: edge_graph_of_sequence([0, 1, 3], 2, 3),
                                     D, RANGE),
    "verify-k": (lambda: verify([0, 0, 0], 2, 1), D, ALPHABET),
    "verify-n": (lambda: verify([0, 1, 2], 0, 3), D,
                 "window length must be at least 1, got 0"),
    "verify-empty": (lambda: verify([], 2, 3), D, SHAPE),
    "verify-2d": (lambda: verify(FLAT, 2, 3), D, SHAPE),
    "verify-range": (lambda: verify([0, 1, 3], 2, 3), D, RANGE),
    "verify-negative": (lambda: verify([0, -1, 2], 2, 3), D, RANGE),
    "verify-float": (lambda: verify(np.array([0, 1, 2.5]), 2, 3), D, INTEGERS),
    "verify-strings": (lambda: verify(["0", "1", "2", "1"], 2, 3), D, INTEGERS),
    "verify-nan": (lambda: verify(np.array([0, 1, np.nan]), 2, 3), D, INTEGERS),
    "exhaustive_max_period-k": (lambda: exhaustive_max_period(1, 3), D, ALPHABET),
    "exhaustive_max_period-n": (lambda: exhaustive_max_period(3, 1), D, WINDOW),
    "OrientableSequence-k": (lambda: OrientableSequence(1, 2, 3, np.zeros(3, int)),
                             D, ALPHABET),
    "OrientableSequence-n": (lambda: OrientableSequence(3, 1, 3, np.arange(3)),
                             D, WINDOW),
    "OrientableSequence-empty": (lambda: OrientableSequence(3, 2, 0, np.zeros(0, int)),
                                 D, SHAPE),
    "OrientableSequence-2d": (lambda: OrientableSequence(3, 2, 4, FLAT), D, SHAPE),
    "OrientableSequence-range": (
        lambda: OrientableSequence(3, 2, 3, np.array([0, 1, 3])), D, RANGE),
    "OrientableSequence-period": (lambda: OrientableSequence(3, 2, 4, np.arange(3)), D,
                                  "period 4 does not match 3 symbols"),
    "OrientableSequence-float": (lambda: OrientableSequence(3, 2, 3, [0, 1, 2.5]), D,
                                 INTEGERS),
    "locate-float": (lambda: locate(OrientableSequence(3, 3, 3, np.arange(3)),
                                    [0.5, 1, 2]), D, "window " + INTEGERS),
    "low_pseudoweight_graph-k": (lambda: low_pseudoweight_graph(1, 3), D, ALPHABET),
    "low_pseudoweight_graph-n": (lambda: low_pseudoweight_graph(3, 1), D, WINDOW),
    "compute_table-k": (lambda: compute_table("bounds", 1, 3), D,
                        "max_k must be at least 2, got 1"),
    "compute_table-n": (lambda: compute_table("bounds", 3, 1), D,
                        "max_n must be at least 2, got 1"),
    "compute_table-which": (lambda: compute_table("nope", 3, 3), D,
                            "table must be one of ('bounds', 'a-periods', "
                            "'lempel-periods', 'known'), got 'nope'"),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_rejects_bad_input(name):
    call, exc_type, message = ENTRY_POINTS[name]
    with pytest.raises(exc_type) as info:
        call()
    if message is not None:
        assert str(info.value) == message


def test_edge_codes_accept_an_empty_list_and_bools():
    # np.asarray([]) is float64, yet it holds no code that is not an integer.
    assert DBSubgraph(2, 1, []).edge_count == 0
    assert DBSubgraph(2, 1, np.array([False, True])).edges.tolist() == [0, 1]
    with pytest.raises(DomainError, match="cannot be empty"):
        EulerianCircuit(2, 1, [], (0,))


def test_words_accept_numpy_bools():
    # A bool array is a word of integer symbols, as the decoder and
    # checked_symbols already take it.
    seq = OrientableSequence(2, 3, 4, np.array([0, 0, 1, 1]))
    window = np.array([True, False, False])
    assert seq.decoder.decode(window[None])[0].tolist() == [3]
    assert locate(seq, window) == LocateResult(3, Direction.FORWARD)
    assert np.array([True, False]) in full_de_bruijn(2, 1)
    for word, want in ((np.array([True, False]), (1, 0)),
                       ([np.True_, np.int64(2)], (1, 2))):
        symbols = ZkTuple(3, word).symbols
        assert symbols == want and all(type(s) is int for s in symbols)


FILES = {
    "good": "k=5 n=2 period=10 method=a\n0124023413\n",
    "reversal": "k=2 n=2 period=3 method=unknown\n010\n",
    "empty": "",
    "header": "not a header\n",
    "two-lines": "k=3 n=2 period=3 method=unknown\n012\n012\n",
    "no-body": "k=3 n=2 period=3 method=unknown\n",
    "period": "k=3 n=2 period=4 method=unknown\n012\n",
    "range": "k=3 n=2 period=4 method=unknown\n0123\n",
    "letters": "k=3 n=2 period=3 method=unknown\n0a2\n",
    "commas": "k=11 n=2 period=3 method=unknown\n0,x,2\n",
    "k1": "k=1 n=2 period=3 method=unknown\n000\n",
    "n0": "k=3 n=0 period=3 method=unknown\n012\n",
    "wide": ("k=11 n=19 period=20 method=unknown\n"
             + ",".join(str(i % 11) for i in range(20)) + "\n"),
}

# (argv, exit code, stderr prefix); "{name}" is the path of FILES[name].
CLI_CASES = [
    (["verify", "--in", "{good}"], 0, ""),
    (["verify", "--in", "{reversal}"], 3, "rejected:"),
    (["verify", "--in", "/no/such/file.txt"], 1, "error:"),
    (["verify", "--in", "{empty}"], 1, "error:"),
    (["verify", "--in", "{header}"], 1, "error:"),
    (["verify", "--in", "{two-lines}"], 1, "error:"),
    (["verify", "--in", "{no-body}"], 1, "error:"),
    (["verify", "--in", "{period}"], 1, "error:"),
    (["verify", "--in", "{range}"], 1, "error:"),
    (["verify", "--in", "{letters}"], 1, "error:"),
    (["verify", "--in", "{commas}"], 1, "error:"),
    (["verify", "--in", "{k1}"], 1, "error:"),
    (["verify", "--in", "{n0}"], 1, "error:"),
    (["verify", "--in", "{good}", "--n", "0"], 1, "error:"),
    (["verify", "--in", "{good}", "--k", "1"], 1, "error:"),
    (["verify", "--in", "{good}", "--k", "3"], 1, "error:"),
    (["verify", "--in", "{good}", "--n", "two"], 1, "usage:"),
    (["verify"], 1, "usage:"),
    (["locate", "--in", "{good}", "--window", "01"], 0, ""),
    (["locate", "--in", "{good}", "--window", "xy"], 1, "bad window:"),
    (["locate", "--in", "{good}", "--window", "09"], 1, "bad window:"),
    (["locate", "--in", "{good}", "--window", ""], 1, "bad window:"),
    (["locate", "--in", "{good}", "--window", "0"], 1, "error:"),
    (["locate", "--in", "{good}", "--window", "012"], 1, "error:"),
    (["locate", "--in", "{reversal}", "--window", "01"], 3, "rejected:"),
    (["locate", "--in", "{header}", "--window", "01"], 1, "error:"),
    (["locate", "--in", "{range}", "--window", "01"], 1, "error:"),
    (["locate", "--in", "{k1}", "--window", "00"], 1, "error:"),
    (["locate", "--in", "{wide}", "--window", ",".join(["0"] * 19)], 1, "error:"),
    (["locate", "--in", "/no/such/file.txt", "--window", "01"], 1, "error:"),
    (["locate", "--in", "{good}"], 1, "usage:"),
    (["bound", "--k", "1", "--n", "4"], 1, "error:"),
    (["bound", "--k", "5", "--n", "1"], 1, "error:"),
    (["bound", "--k", "0", "--n", "0", "--ledger"], 1, "error:"),
    (["bound", "--k", "five", "--n", "4"], 1, "usage:"),
    (["bound", "--k", "10", "--n", "10000000"], 1, "error:"),
    (["bound", "--k", "3", "--n", str(10**30), "--ledger"], 1, "error:"),
    (["bound", "--k", "3", "--n", str(10**400)], 1, "error:"),
    (["table", "--which", "bounds", "--max-k", "1"], 1, "error:"),
    (["table", "--which", "a-periods", "--max-n", "1"], 1, "error:"),
    (["table", "--which", "nope"], 1, "usage:"),
    (["table", "--which", "known", "--max-k", "x"], 1, "usage:"),
]


@pytest.mark.parametrize("argv,code,prefix", CLI_CASES,
                         ids=[" ".join(c[0]) for c in CLI_CASES])
def test_cli_exit_code_and_stderr(tmp_path, capsys, argv, code, prefix):
    paths = {}
    for name, text in FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="ascii")
    assert main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert (err == "") == (prefix == "")
    assert "Traceback" not in err


def test_bound_prints_up_to_the_digit_limit(capsys):
    # 10**4299 has 4300 digits, the most a bound may span; one more is refused.
    assert main(["bound", "--k", "10", "--n", "4299", "--ledger"]) == 0
    bound = capsys.readouterr().out.splitlines()[0]
    assert int(bound) == period_upper_bound(10, 4299) and len(bound) == 4299
    assert main(["bound", "--k", "10", "--n", "4300"]) == 1
    assert capsys.readouterr().err == "error: 10**4300 has more than 4300 digits\n"


def test_cli_refuses_a_symbol_past_the_digit_limit(tmp_path, capsys):
    # int() reads at most 4300 digits, leading zeros included; past that a
    # wide-alphabet file is refused like any other malformed one.
    for field in ("9" * 5000, "0" * 4300 + "1"):
        path = tmp_path / "long.txt"
        path.write_text(f"k=11 n=2 period=2 method=unknown\n1,{field}\n",
                        encoding="ascii")
        for argv in (["verify", "--in", str(path)],
                     ["locate", "--in", str(path), "--window", "1,0"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: a symbol has too many digits to read\n"


def test_table_bounds_refuses_before_any_cell(monkeypatch, capsys):
    # The first bound too wide to print, in grid order, is 8**4762; no cell
    # before it is computed, however far --max-n reaches.
    def no_cell(*args):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(tables, "_compute_cell", no_cell)
    for max_n in ("5000", str(10**30)):
        start = time.perf_counter()
        assert main(["table", "--which", "bounds", "--max-n", max_n]) == 1
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == "error: 8**4762 has more than 4300 digits\n"
    # A row refuses from some k below max_k on: 996**1434 still prints.
    assert main(["table", "--which", "bounds", "--max-k", "1000", "--max-n", "2000"]) == 1
    assert capsys.readouterr().err == "error: 997**1434 has more than 4300 digits\n"


@pytest.mark.parametrize("argv,cells", [
    (["--which", "bounds", "--max-k", str(10**12)], 8 * (10**12 - 1)),
    (["--which", "a-periods", "--max-n", str(10**12)], 5 * (10**12 - 1)),
])
def test_cli_table_refuses_a_grid_past_the_cap(capsys, argv, cells):
    start = time.perf_counter()
    assert main(["table", *argv]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: table grid of {cells} cells exceeds cap 1000000\n")


def test_table_grid_at_the_cap_computes(monkeypatch):
    monkeypatch.setattr(tables, "MAX_GRID_CELLS", 7)
    assert len(compute_table("bounds", max_k=8, max_n=2).cells) == 7

    def no_cell(*args):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(tables, "_compute_cell", no_cell)
    with pytest.raises(ResourceCapError, match="^table grid of 8 cells exceeds cap 7$"):
        compute_table("bounds", max_k=9, max_n=2)


@pytest.mark.parametrize("cap,message", [
    ("abc", "error: OSEQ_EDGE_CAP must be an integer, got 'abc'\n"),
    ("0", "error: OSEQ_EDGE_CAP must be at least 1, got 0\n"),
    ("100", "error: edge set of size 250 exceeds cap 100\n"),
])
def test_cli_edge_cap_env(tmp_path, monkeypatch, capsys, cap, message):
    monkeypatch.setenv("OSEQ_EDGE_CAP", cap)
    out = tmp_path / "seq.txt"
    argv = ["generate", "--method", "a", "--k", "5", "--n", "4", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_cli_locate_names_the_code_width(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(FILES["wide"], encoding="ascii")
    argv = ["locate", "--in", str(path), "--window", ",".join(["0"] * 19)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: 11**19 does not fit in 64-bit codes\n"
