import json

import numpy as np
import pytest

from oseq import tables
from oseq.cli import main
from oseq.sequences import read_sequence_file


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
