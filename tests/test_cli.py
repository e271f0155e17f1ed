"""Command-line front end: exit codes, determinism, file formats."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equialg
from equialg.cli import main
from equialg.magmas import (enumerate_interchanging_pairs, pair_to_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_unital_c2(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:2",
                       "--filter", "unital")
    assert code == 0
    assert "6 weak indexing systems (unital)" in out


def test_enumerate_transfer_systems_c4(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:4",
                       "--transfer-systems")
    assert code == 0
    assert "5 transfer systems" in out


def test_enumerate_trivial_group_single_node(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:1",
                       "--filter", "unital", "--cutoff", "3")
    assert code == 0
    assert "2 weak indexing systems" in out


def test_enumerate_guard_exit_2(tmp_path, capsys):
    # C2^3 has more transfer systems than the closed-set guard lists
    table = tmp_path / "c2c2c2.json"
    c2 = equialg.cyclic_group(2)
    table.write_text(equialg.direct_product(equialg.direct_product(c2, c2),
                                            c2).to_json())
    code, _, err = run(capsys, "enumerate", "--group", str(table),
                       "--transfer-systems")
    assert code == 2 and "guard" in err


def test_transfer_systems_guard_gives_no_filter_or_cutoff_advice(
        tmp_path, capsys):
    """--transfer-systems reads neither --filter nor --cutoff, so the
    closed-set guard must not suggest them; the systems path still does."""
    table = tmp_path / "c2c2c2.json"
    c2 = equialg.cyclic_group(2)
    table.write_text(equialg.direct_product(equialg.direct_product(c2, c2),
                                            c2).to_json())
    code, out, err = run(capsys, "enumerate", "--group", str(table),
                         "--transfer-systems")
    assert code == 2 and not out
    assert err.startswith("guard:") and "closed sets" in err
    assert "filter" not in err and "cutoff" not in err
    code, _, err = run(capsys, "enumerate", "--group", "cyclic:3")
    assert code == 2 and "a filter or a lower cutoff gives fewer" in err


def test_enumerate_transfer_systems_c36(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:36",
                       "--transfer-systems")
    assert code == 0 and out == "C36: 1396 transfer systems\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--group", "cyclic:4", "--cutoff", "3", "--filter", "unital"],
    ["conn", "--group", "cyclic:4", "--cutoff", "2", "--all-pairs"],
    # 0 is a cutoff too, not a request for the default 3·|G|
    ["enumerate", "--group", "cyclic:4", "--cutoff", "0", "--filter", "unital"],
    ["conn", "--group", "cyclic:4", "--cutoff", "0", "--all-pairs"]])
def test_cutoff_below_group_order_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error:") and "below the group order 4" in err


@pytest.mark.parametrize("argv, flag", [
    (["--cutoff", "6"], "--cutoff"), (["--cutoff", "0"], "--cutoff"),
    (["--filter", "unital"], "--filter"), (["--filter", "all"], "--filter")])
def test_transfer_systems_reject_the_options_they_do_not_read(capsys, argv,
                                                              flag):
    code, out, err = run(capsys, "enumerate", "--group", "cyclic:2",
                         "--transfer-systems", *argv)
    assert code == 1 and not out
    assert err == f"error: --transfer-systems does not read {flag}\n"


def test_enumerate_all_guard_names_the_way_out(capsys):
    # C4 has 104 level classes at its default cutoff 12, over the 80 of 'all'
    code, out, err = run(capsys, "enumerate", "--group", "cyclic:4")
    assert code == 2 and not out
    assert "104 level classes exceed the guard of 80" in err
    assert "'all'" in err and "'unital'" in err and "'almost_unital'" in err
    assert "cutoff" in err
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:4",
                       "--filter", "unital")
    assert code == 0 and "weak indexing systems (unital)" in out
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:4",
                       "--cutoff", "4")
    assert code == 0 and "weak indexing systems (all) at cutoff 4" in out
    with pytest.raises(SystemExit):
        main(["enumerate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "'all' (the default) is guarded at 80" in help_text
    assert "'unital' and 'almost_unital'" in help_text
    assert "--cutoff" in help_text


def test_enumerate_lattice_guard_exit_2(capsys):
    # C3 at its default cutoff 9 has 26 level classes, under the guard of
    # 80, but 66,913 systems, over the closed-set guard
    code, out, err = run(capsys, "enumerate", "--group", "cyclic:3")
    assert code == 2 and not out
    assert err.startswith("guard:") and "closed sets" in err
    with pytest.raises(SystemExit):
        main(["enumerate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "stops past 25000 closed sets" in help_text


def test_enumerate_bad_group_exit_1(capsys):
    code, _, err = run(capsys, "enumerate", "--group", "cyclic:x")
    assert code == 1


def test_enumerate_deterministic_json(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run(capsys, "enumerate", "--group", "cyclic:2",
                         "--filter", "almost_unital", "--format", "json",
                         "--output", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    data = json.loads(f1.read_text())
    assert len(data["nodes"]) == 9


def test_enumerate_dot_output(tmp_path, capsys):
    out = tmp_path / "poset.dot"
    code, _, _ = run(capsys, "enumerate", "--group", "cyclic:4",
                     "--transfer-systems", "--format", "dot",
                     "--output", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("digraph") and "->" in text
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "2e97824399ccdcbbe13095de89ea48558d91ee316464c065385947e6a0ea6dc4"


def test_enumerate_dot_to_stdout_ends_in_one_newline(capsys):
    """With no --output the DOT follows the count line on stdout, as the
    file holds it, and ends in exactly one newline."""
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:4",
                       "--transfer-systems", "--format", "dot")
    assert code == 0
    head, dot = out.split("\n", 1)
    assert head == "C4: 5 transfer systems"
    assert dot.endswith("}\n") and not dot.endswith("\n\n")
    assert hashlib.sha256(dot.encode()).hexdigest() == \
        "2e97824399ccdcbbe13095de89ea48558d91ee316464c065385947e6a0ea6dc4"


def test_eh_check_pair_file_pass(tmp_path, capsys):
    pair = enumerate_interchanging_pairs(2, 2, 2)[-1]
    f = tmp_path / "pair.json"
    f.write_text(pair_to_json(pair))
    code, out, _ = run(capsys, "eh-check", "--pair", str(f))
    assert code == 0 and "PASS" in out


def test_eh_check_pair_verdict_reports_the_pairs_p(tmp_path, capsys):
    pair = enumerate_interchanging_pairs(3, 2, 2)[-1]
    f, out = tmp_path / "pair.json", tmp_path / "verdict.json"
    f.write_text(pair_to_json(pair))
    code, _, _ = run(capsys, "eh-check", "--pair", str(f), "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text())["p"] == 3


@pytest.mark.parametrize("path, value", [
    (("star", "mul_e", 0, 0), 0.5), (("bullet", "t", 1), True),
    (("sigma", 1), 1.9), (("p",), 2.0), (("unit_g",), False)])
def test_eh_check_non_integral_pair_exit_1(tmp_path, capsys, path, value):
    # each value equals the entry it replaces once cast with int()
    data = json.loads(pair_to_json(enumerate_interchanging_pairs(2, 2, 2)[-1]))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    assert target[last] == int(value)
    target[last] = value
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(data))
    code, _, err = run(capsys, "eh-check", "--pair", str(f))
    assert code == 1 and err.startswith("error:")


def test_eh_check_corrupted_pair_is_input_error(tmp_path, capsys):
    # transfers that are not coupled: precondition failure, exit 1 not 3
    text = json.dumps({
        "p": 2, "size_e": 2, "size_g": 4,
        "sigma": [0, 1], "r": [0, 1, 0, 1], "unit_e": 0, "unit_g": 0,
        "star": {"mul_e": [[0, 1], [1, 0]],
                 "mul_g": [[(a + b) % 4 for b in range(4)] for a in range(4)],
                 "t": [0, 0]},
        "bullet": {"mul_e": [[0, 1], [1, 0]],
                   "mul_g": [[(a + b) % 4 for b in range(4)] for a in range(4)],
                   "t": [0, 2]}})
    f = tmp_path / "bad.json"
    f.write_text(text)
    code, _, err = run(capsys, "eh-check", "--pair", str(f))
    assert code == 1 and "interchange precondition" in err


@pytest.mark.parametrize("unit_e", [7, "x"])
def test_eh_check_bad_unit_exit_1(tmp_path, capsys, unit_e):
    pair = enumerate_interchanging_pairs(2, 2, 2)[-1]
    data = json.loads(pair_to_json(pair))
    data["unit_e"] = unit_e
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(data))
    code, _, err = run(capsys, "eh-check", "--pair", str(f))
    assert code == 1 and err.startswith("error:")


def test_eh_check_malformed_file_exit_1(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{oops")
    code, _, _ = run(capsys, "eh-check", "--pair", str(f))
    assert code == 1


def test_eh_check_sweep(capsys):
    code, out, _ = run(capsys, "eh-check", "--sweep", "2", "2", "--p", "2")
    assert code == 0
    assert "0 violations" in out and "bijective" in out


def test_eh_check_sweep_guard(capsys):
    code, _, err = run(capsys, "eh-check", "--sweep", "9", "9")
    assert code == 2


def test_eh_check_sweep_non_prime_p_exit_1(capsys):
    code, _, err = run(capsys, "eh-check", "--sweep", "1", "1", "--p", "4")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-carrier", "7"],
    ["enumerate", "--norm-axiom"],
    ["eh-check", "--sweep", "1", "1", "--group", "cyclic:9"],
    ["eh-check", "--sweep", "1", "1", "--cutoff", "3"],
    ["eh-check", "--sweep", "1", "1", "--format", "dot"],
    ["eh-check", "--sweep", "1", "1", "--max-carrier", "7"],
    ["conn", "--ev-witness", "2", "2", "--format", "dot"],
    ["conn", "--ev-witness", "2", "2", "--max-carrier", "7"],
    ["conn", "--ev-witness", "2", "2", "--norm-axiom"]])
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_conn_all_pairs_c4(capsys):
    code, out, _ = run(capsys, "conn", "--group", "cyclic:4", "--all-pairs")
    assert code == 0
    assert "0 failures" in out


# SHA-256 of the --output file and of stdout, as written before the join
# bound was read from down-set masks
CONN_BYTES = {
    "C4-12-all-pairs": (
        ["--group", "cyclic:4", "--cutoff", "12", "--all-pairs"],
        "f7d91733a781e20c43ed210a12adcee065247079eaf2ca478ce6db0c1e0a6251",
        "d7d308b160339bcc395646e18b4684e19325f7a6f730542759fbe7277411823a"),
    "C2-all-pairs": (
        ["--group", "cyclic:2", "--all-pairs"],
        "241ab327ac52312781e731e18327be44fd89dfb972efca58c6aceee381904270",
        "becbf77164507c3d84f78a90b2aa1ce81382862bdfeb7d9cc927c93b231171ef"),
    "C4-12-nodes": (
        ["--group", "cyclic:4", "--cutoff", "12", "--nodes", "trivial",
         "complete"],
        "851fe51a3bc0ef458f25853f2fdbff0e8f969aa31be30490e3e95e9ca8769d76",
        "66562b1afb33b70e4d667e863044ed0b8d936dcb98d34337c896a12d579ea289"),
    "C2-nodes": (
        ["--group", "cyclic:2", "--nodes", "trivial", "complete"],
        "c7fe031ed58669a1b4c8ed23bd396ba1a91f343608050b436e7ff96b39a557d6",
        "7bd8291c3ee967cc64f7a9de79206da20bbc943109b2108ef69675cdb6a2e8cc"),
}


@pytest.mark.parametrize("case", list(CONN_BYTES))
def test_conn_bytes_are_pinned(tmp_path, capsys, case):
    argv, file_sha, out_sha = CONN_BYTES[case]
    path = tmp_path / "conn.json"
    code, out, _ = run(capsys, "conn", *argv, "--output", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha


# eh-check --sweep 3 3: (p, reading) -> SHA-256 of the --output file and of
# stdout; the p = 2 literal reading is the eh-sweep workload
EH_SWEEP_BYTES = {
    (2, ""): (
        "af8261004fead506100292ec4ed200b6a4d05824cdcfe786c99d936ea90bc233",
        "673fc3017e93ad66e34685c25b19c6bd5b61eb3159a2f88e42d68fed18bca01e"),
    (2, "--norm-axiom"): (
        "55453db0fab122f5ed55345b2893e96ccd59e79cce754e3b6b7e0600d5b404a4",
        "c49f3d3791d2fadc06a309eb4aee395f395fdee62c7d81b482f3ecbb21dcaaa8"),
    (3, ""): (
        "5119e0a2c960860e22daa8ebd99eae2064d6470d41a4baa7b61ee2a688fbce2e",
        "faf7c648e8f2120f2911338f2ac14d62eff66929e0f036371ee33615040dac8d"),
    (3, "--norm-axiom"): (
        "5119e0a2c960860e22daa8ebd99eae2064d6470d41a4baa7b61ee2a688fbce2e",
        "faf7c648e8f2120f2911338f2ac14d62eff66929e0f036371ee33615040dac8d"),
}


@pytest.mark.parametrize("p, reading", list(EH_SWEEP_BYTES),
                         ids=lambda v: str(v).strip("-") or "literal")
def test_eh_check_sweep_bytes_are_pinned(tmp_path, capsys, p, reading):
    file_sha, out_sha = EH_SWEEP_BYTES[p, reading]
    path = tmp_path / "sweep.json"
    argv = ["eh-check", "--sweep", "3", "3", "--p", str(p),
            "--output", str(path)] + ([reading] if reading else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha


# C2 `all` at cutoff 6: 3692 systems, a 27.7 MB JSON export
WIDE = ["enumerate", "--group", "cyclic:2", "--cutoff", "6", "--filter", "all",
        "--format", "json"]
WIDE_SUMMARY = "C2: 3692 weak indexing systems (all) at cutoff 6\n"
WIDE_SHA = "bb35296b08e676a849b36f15b2321b1a90b9d2552d4e6af896cfcb0e991a0f96"


def test_json_export_bytes_are_pinned(tmp_path, capsys):
    """The --output file, as written when the export was one string (the
    file lattice-wide checks), and stdout: the summary, the file and a
    newline."""
    path = tmp_path / "lattice.json"
    code, out, _ = run(capsys, *WIDE, "--output", str(path))
    assert code == 0 and out == WIDE_SUMMARY
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_SHA
    code, out, _ = run(capsys, *WIDE)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4a9b9949a8f11e20250b4dfacc980573f1928b7614cf6e77cc249119c62cb1a0"
    assert out == WIDE_SUMMARY + path.read_text() + "\n"


def _python(*argv, **kwargs):
    """`python ARGV` with this checkout's package on the path."""
    src = str(Path(equialg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux only")
def test_json_export_streams_to_its_file(tmp_path):
    """Writing the export raises the peak memory of a run far less than
    the 26.4 MiB it writes: the rows go to the file one at a time."""
    # a process's ru_maxrss starts at the peak of the one that forked it,
    # so each run is the child of a small interpreter that reads its peak
    script = ("import resource, subprocess, sys; "
              "subprocess.run([sys.executable, '-m', 'equialg.cli', "
              "*sys.argv[1:]], stdout=subprocess.DEVNULL, check=True); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    peaks = []
    for fmt in (["--format", "json", "--output", str(tmp_path / "l.json")],
                ["--format", "text"]):
        proc = _python("-c", script, *WIDE[:-2], *fmt, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        peaks.append(int(out))
    assert peaks[0] - peaks[1] < 8 * 1024


def test_reader_closing_stdout_early_is_not_an_error():
    """`enumerate ... --format json | head -c 200` ends with exit 0 and
    nothing on stderr, as if the whole export had been read."""
    proc = _python("-m", "equialg.cli", *WIDE, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    head = proc.stdout.read(200)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert len(head) == 200 and err == b""


def test_conn_ev_value(capsys):
    code, out, _ = run(capsys, "conn", "--ev", "1", "2", "--set", "2,1")
    assert code == 0 and "= -1" in out


def test_conn_ev_level_e(capsys):
    code, out, _ = run(capsys, "conn", "--ev", "1", "2", "--set", "3",
                       "--level", "e")
    assert code == 0 and "= 1" in out


def test_conn_ev_witness(capsys):
    code, out, _ = run(capsys, "conn", "--ev-witness", "2", "2")
    assert code == 0
    assert "lhs bound 0 < rhs 1: True" in out
    assert "forthcoming" in out


def test_conn_missing_mode_exit_1(capsys):
    code, _, _ = run(capsys, "conn")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["conn", "--all-pairs", "--nodes", "trivial", "complete"],
    ["conn", "--ev", "1", "1", "--set", "2", "--all-pairs"],
    ["conn", "--nodes", "trivial", "complete", "--ev-witness", "2", "2"],
    ["conn", "--ev", "1", "1", "--ev-witness", "2", "2"],
    ["eh-check", "--pair", "pair.json", "--sweep", "1", "1"]])
def test_conflicting_modes_are_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_conn_ev_non_integer_set_exit_1(capsys):
    code, _, err = run(capsys, "conn", "--ev", "1", "2", "--set", "2,x")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("table", [
    {"mul": [[0, 1], [1, "x"]]}, {"mul": 5},
    {"mul": [[0, 1], [1, 0]], "order": "two"},
    {"mul": [[0, 1], [1, 0.5]]}, {"mul": [[0, True], [1, 0]]},
    {"mul": [[0, 1], [1, 0]], "order": 2.0}])
def test_enumerate_malformed_group_file_exit_1(tmp_path, capsys, table):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(table))
    code, _, err = run(capsys, "enumerate", "--group", str(f))
    assert code == 1 and err.startswith("error:")
