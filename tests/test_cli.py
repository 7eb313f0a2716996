import contextlib
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq import tables
from oseq.cli import main
from oseq.constructions import ConstructionRecipe, Method, generate
from oseq.sequences import read_sequence_file, serialize_sequence


def run(*argv):
    return main(list(argv))


def test_generate_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    assert run("generate", "--method", "a", "--k", "5", "--n", "3",
               "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "period=50" in captured.out
    assert "meets bound" in captured.out
    parsed = read_sequence_file(out)
    assert parsed.k == 5 and parsed.n == 3 and parsed.period == 50
    assert run("verify", "--in", str(out)) == 0
    assert "ok:" in capsys.readouterr().out


def test_generate_block_method(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    assert run("generate", "--method", "a_t", "--k", "5", "--n", "4",
               "--t", "2", "--out", str(out)) == 0
    assert "period=250" in capsys.readouterr().out


def test_generate_disconnected_exits_2(tmp_path, capsys):
    code = run("generate", "--method", "a", "--k", "3", "--n", "3",
               "--out", str(tmp_path / "x.txt"))
    assert code == 2
    err = capsys.readouterr().err
    assert "2 strongly-connected components" in err
    assert "6, 3" in err


def test_generate_rejects_bad_method(capsys):
    assert run("generate", "--method", "zzz", "--k", "5", "--n", "3") == 1


def test_generate_domain_error_exits_1(capsys):
    assert run("generate", "--method", "a", "--k", "2", "--n", "3") == 1
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_corrupted(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("k=2 n=2 period=3 method=unknown\n010\n")
    assert run("verify", "--in", str(path)) == 3
    assert "kind=reversal" in capsys.readouterr().err


def test_verify_wide_alphabet_file(tmp_path, capsys):
    # 11**19 exceeds 64-bit window codes; verify still decides exactly.
    symbols = np.random.default_rng(19).integers(0, 11, 3000)
    path = tmp_path / "wide.txt"
    for planted, code in ((False, 0), (True, 3)):
        if planted:
            symbols[2000:2019] = symbols[500:519]
        path.write_text("k=11 n=19 period=3000 method=unknown\n"
                        + ",".join(map(str, symbols)) + "\n")
        assert run("verify", "--in", str(path)) == code
    assert "kind=duplicate, i=500, j=2000" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert run("verify", "--in", "/no/such/file.txt") == 1


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a header\n")
    assert run("verify", "--in", str(path)) == 1


def test_bound_plain(capsys):
    assert run("bound", "--k", "7", "--n", "4") == 0
    assert capsys.readouterr().out.strip() == "1134"


def test_bound_ledger(capsys):
    assert run("bound", "--k", "5", "--n", "5", "--ledger") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1450"
    assert "ledger edge bound: 2900" in out
    assert "U_out" in out


def test_bound_domain_error(capsys):
    assert run("bound", "--k", "1", "--n", "4") == 1


def test_table_bounds_ok(capsys):
    assert run("table", "--which", "bounds") == 0
    out = capsys.readouterr().out
    assert out.startswith("n\\k")
    assert "67059992" in out


def test_table_json(capsys):
    assert run("table", "--which", "lempel-periods",
               "--max-k", "4", "--max-n", "4", "--json") == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 4
    by_cell = {(r["n"], r["k"]): r["value"] for r in records}
    assert by_cell[(4, 3)] == 30


def test_table_strict_flags_skips(capsys):
    assert run("table", "--which", "a-periods", "--cell-cap", "100") == 0
    capsys.readouterr()
    assert run("table", "--which", "a-periods", "--cell-cap", "100",
               "--strict") == 3
    assert "skipped" in capsys.readouterr().err


def test_table_mismatch_exits_3(monkeypatch, capsys):
    data = json.loads(json.dumps(tables.reference_tables()))
    data["bounds"]["2"]["3"] = 999
    monkeypatch.setattr(tables, "reference_tables", lambda: data)
    assert run("table", "--which", "bounds", "--max-k", "3", "--max-n", "2") == 3
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert "disagree" in captured.err


def test_table_workers(capsys):
    assert run("table", "--which", "bounds", "--max-k", "5", "--max-n", "5",
               "--workers", "2") == 0


def test_locate_forward_and_reverse(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    run("generate", "--method", "lempel", "--k", "4", "--n", "3",
        "--out", str(out))
    capsys.readouterr()
    assert run("locate", "--in", str(out), "--window", "011") == 0
    msg = capsys.readouterr().out
    assert msg.startswith("position ")
    direction = msg.split()[2]
    assert direction in ("forward", "reverse")


def test_locate_not_found(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    run("generate", "--method", "lempel", "--k", "4", "--n", "3",
        "--out", str(out))
    capsys.readouterr()
    assert run("locate", "--in", str(out), "--window", "000") == 4
    assert "not found" in capsys.readouterr().out


def test_locate_bad_window(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    run("generate", "--method", "a", "--k", "5", "--n", "2",
        "--out", str(out))
    capsys.readouterr()
    assert run("locate", "--in", str(out), "--window", "xy") == 1
    assert run("locate", "--in", str(out), "--window", "09") == 1


def test_locate_rejects_non_orientable_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("k=2 n=2 period=3 method=unknown\n010\n")
    assert run("locate", "--in", str(path), "--window", "01") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rejected:" in captured.err and "kind=reversal" in captured.err


def test_no_command_is_usage_error(capsys):
    assert run() == 1


def test_locate_matches_window_position(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    run("generate", "--method", "a", "--k", "5", "--n", "3", "--out", str(out))
    capsys.readouterr()
    parsed = read_sequence_file(out)
    arr = np.asarray(parsed.symbols)
    window = "".join(str(int(arr[(7 + d) % parsed.period])) for d in range(3))
    assert run("locate", "--in", str(out), "--window", window) == 0
    assert capsys.readouterr().out.strip() == "position 7 forward"


# The fuzz's values: mostly small numbers, sometimes huge ones or junk.
HUGE = st.sampled_from([10**8, 2**63, 10**30])
JUNK = st.sampled_from(["", "x", "1.5", "-", "-1", "0", "1", "9" * 5000])


def number(low, high):
    return st.one_of(st.integers(low, high), st.integers(low, high), HUGE).map(str)


@st.composite
def options(draw, **choices):
    """argv for some options: each one given a value (most often), given
    junk, or left out; a flag (None) given or not.  A value of None leaves
    its option out too."""
    argv = []
    for name, values in choices.items():
        flag = "--" + name.replace("_", "-")
        mode = draw(st.sampled_from(["value"] * 4 + ["junk", "absent"]))
        if values is None:
            argv += [flag] * (mode == "value")
        elif mode != "absent":
            value = draw(JUNK if mode == "junk" else values)
            argv += [] if value is None else [flag, value]
    return argv


ORIENTABLE_FILE = serialize_sequence(generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 3)))


@st.composite
def sequence_files(draw):
    """Sequence-file text: mostly a well-formed file over a few symbols, at
    times out of range, miscounted, cut short, replaced by junk, or an
    orientable file."""
    k = draw(st.one_of(st.integers(2, 12), st.sampled_from([0, 1, 2**63, 10**30])))
    n = draw(st.integers(1, 5) | st.just(0))
    symbols = draw(st.lists(st.integers(0, max(min(k, 12) - 1, 0)), min_size=1, max_size=20))
    symbols += draw(st.sampled_from([[]] * 5 + [[k]]))
    body = ("" if k <= 10 else ",").join(map(str, symbols))
    period = len(symbols) + draw(st.sampled_from([0] * 5 + [1, -1]))
    header = f"k={k} n={n} period={period} method=unknown"
    form = draw(st.sampled_from(["file"] * 5 + ["orientable"] * 3
                                + ["header", "body", "empty", "junk"]))
    return {"file": f"{header}\n{body}\n", "header": header, "body": body,
            "empty": "", "junk": draw(st.text(max_size=30)),
            "orientable": ORIENTABLE_FILE}[form]


# Every command with small extents; --workers never above 1, so no
# process pool starts.
CLI_CASES = st.one_of(
    st.tuples(st.just("generate"),
              options(method=st.sampled_from(["a", "c", "a_t", "lempel", "b"]),
                      k=number(2, 7), n=number(2, 4), t=st.none() | number(1, 4))),
    st.tuples(st.just("verify"), options(k=st.none() | number(2, 12),
                                         n=st.none() | number(1, 6))),
    st.tuples(st.just("locate"), options(window=st.text("0123456789", min_size=1, max_size=5)
                                         | st.text("0123456789,", max_size=6))),
    st.tuples(st.just("bound"), options(k=number(2, 12), n=number(2, 12), ledger=None)),
    # table always gets its extent and cell cap: the defaults span minutes.
    st.tuples(st.just("table"),
              st.tuples(st.just("--max-k"), st.integers(1, 7).map(str),
                        st.just("--max-n"), st.integers(1, 5).map(str),
                        st.just("--cell-cap"), st.integers(0, 300).map(str)).map(list),
              options(which=st.sampled_from(["bounds", "a-periods", "lempel-periods",
                                             "known", "b"]),
                      workers=st.none() | st.integers(-1, 1).map(str),
                      json=None, strict=None)),
    st.tuples(st.sampled_from(["help", "--help", "--version"]), st.just([])),
)


# Every case draws small, huge or junk values, and each call must answer
# within a generous 5 s on a slow shared host.
@settings(max_examples=150, deadline=5000)
@given(case=CLI_CASES, text=sequence_files(), with_file=st.sampled_from([True] * 5 + [False]))
def test_cli_fuzz_exits_with_documented_codes(tmp_path_factory, case, text, with_file):
    command, argv = case[0], [a for part in case[1:] for a in part]
    directory = tmp_path_factory.getbasetemp()
    path = directory / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    if command == "generate":
        argv += ["--out", str(directory / "generated.txt")]
    elif command in ("verify", "locate") and with_file:
        argv += ["--in", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command] + argv)
    assert code in range(5)


def test_bound_refuses_huge_window_length_quickly(capsys):
    start = time.perf_counter()
    assert run("bound", "--k", "10", "--n", "100000000") == 1
    assert time.perf_counter() - start < 1
    assert "10**100000000 has more than" in capsys.readouterr().err


@pytest.mark.parametrize("method,k,n,message", [
    ("a", 10**10 + 1, 2, "does not fit in 64-bit codes"),
    ("c", 10**8 + 1, 2, "edge set of size 5000000050000000 exceeds cap"),
    ("lempel", 10**8 + 1, 3, "edge set of size at least 4999999999999999 exceeds cap"),
])
def test_generate_refuses_large_alphabets_before_building(tmp_path, capsys, method, k, n,
                                                          message):
    # Each refuses before it builds anything of size k: about k/2
    # differences, or a weight distribution of 2nk entries.
    start = time.perf_counter()
    assert run("generate", "--method", method, "--k", str(k), "--n", str(n),
               "--out", str(tmp_path / "x.txt")) == 1
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err
