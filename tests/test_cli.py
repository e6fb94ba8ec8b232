import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drinfeld2 import cli
from drinfeld2.census import REALIZE_BOUND_ENV


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODULE_ARGS = ["--p", "3", "--n", "1", "--gamma-T", "0", "--g", "1", "--delta", "1"]

# Exit code and stdout of every subcommand in every output format at one small
# input: --p 3 --n 2 --gamma-T 0 --g 1 --delta 1 for the module subcommands,
# --p 3 --P T --m 2 for the family ones.  Three realize pins in csv follow, on
# the least P of degree --d over F_{p^s}: F_625/F_5 at d = 1 and 2, and
# F_81/F_9, which runs the sweep's product rows over F_9.  Six module pins
# over fields above the table limit follow, which run the table-free
# arithmetic: the packed kernel over F_{3^11}, F_{5^7}, F_{7^6}, F_{251^3}
# and F_{3^20}, and the list kernel over F_{9^6}, a tower on the tabled F_9.
# Four pins with many End-order divisors follow: g = T^12 (13 divisors),
# g = (T+1)(T+2), whose primes the equal-degree split separates,
# g = (T+3)^2 with P = T+3, and 8 divisors with a prime of degree 2.  Five
# census walks close the file: --P in the machine form, with commas over F_5
# and semicolons over F_9, the tower F_9 at m = 3, d = 3 in plain text, and a
# chi census of 343 groups over F_7.
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())


def _pin_id(pin):
    # subcommand-format; a --d pin or one with --P other than T also names
    # its family by its flag values, and a module pin with --n other than 2
    # its field by --p, --s and --n
    words = pin["argv"].split()
    flags = dict(zip(words[1:-2:2], words[2:-2:2]))
    named = "--d" in flags or flags.get("--P", "T") != "T" or flags.get("--n", "2") != "2"
    family = [v for f, v in flags.items() if f in ("--p", "--s", "--n", "--d", "--P", "--m")]
    return "-".join([words[0]] + (family if named else []) + [words[-1]])


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_output_bytes_pinned(capsys, pin):
    code, out, _ = run(capsys, pin["argv"].split())
    assert (code, out) == (pin["exit"], pin["stdout"])


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_out_file_holds_pinned_output(tmp_path, capsys, pin):
    # --out writes exactly the bytes stdout would get, and prints nothing
    target = tmp_path / "out"
    code, out, err = run(capsys, pin["argv"].split() + ["--out", str(target)])
    assert (code, out, err) == (pin["exit"], "", "")
    assert target.read_text() == pin["stdout"]


def _reports_discrepancy(pin):
    # whether a pin's own output lists a discrepancy, read in its format: a
    # json "discrepancies" list, the last column of a family csv row or a
    # chi csv "discrepancies" row, or a plain "discrepancy:" line
    out, form = pin["stdout"], pin["argv"].split()[-1]
    if form == "json":
        return bool(json.loads(out).get("discrepancies"))
    if form == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0][-1] == "discrepancies":
            return bool(rows[1][-1])
        return any(row[0] == "discrepancies" and row[1] != "[]" for row in rows)
    return any(line.startswith("discrepancy: ") for line in out.splitlines())


# The status the process itself ends with, through `sys.exit(main())`: one
# command per exit code, the first a pinned one.
PROCESS_ARGV = {
    0: PINS[0]["argv"],
    1: "charpoly --p 4 --n 2 --gamma-T 0 --g 1 --delta 1",
    2: "charpoly",
    3: "realize --p 3 --P T --m 2 --strict",
}


@pytest.mark.parametrize("status", sorted(PROCESS_ARGV))
def test_process_exit_status(status):
    env = {k: v for k, v in os.environ.items() if k != REALIZE_BOUND_ENV}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld2.cli"] + PROCESS_ARGV[status].split(),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    if status == 0:
        assert (proc.stdout, proc.stderr) == (PINS[0]["stdout"], "")
    if status == 1:
        assert (proc.stdout, proc.stderr) == ("", "error: p = 4 is not prime\n")


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_strict_exit_code_pinned(capsys, pin):
    # --strict leaves the output as it is and exits 3 exactly when a
    # discrepancy is reported
    expected = 3 if _reports_discrepancy(pin) else 0
    code, out, _ = run(capsys, pin["argv"].split() + ["--strict"])
    assert (code, out) == (expected, pin["stdout"])


def test_charpoly_json(capsys):
    code, out, _ = run(capsys, ["charpoly"] + MODULE_ARGS)
    assert code == 0
    data = json.loads(out)
    assert data["charpoly"] == {"c": "2", "mu": "2", "P": "T", "m": 1}


def test_classify_supersingular_module(capsys):
    argv = ["classify", "--p", "3", "--n", "1", "--gamma-T", "0",
            "--g", "0", "--delta", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["is_supersingular"] is True


def test_classify_plain_output(capsys):
    code, out, _ = run(capsys, ["classify", "--output", "plain"] + MODULE_ARGS)
    assert code == 0
    assert "supersingular: False" in out


def test_endring_json(capsys):
    code, out, _ = run(capsys, ["endring"] + MODULE_ARGS)
    assert code == 0
    data = json.loads(out)
    assert data["end_ring_kind"] == "MAXIMAL_ORDER"
    assert data["omega"] == "T+1"


def test_census_csv_total(capsys):
    argv = ["census", "--p", "3", "--P", "T", "--m", "1", "--output", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[:4] == ["3", "1", "1", "1"]
    assert row[8] == "6"  # enumerative total
    # a float coverage, realized counts and two quoted discrepancies
    argv = ["realize", "--p", "3", "--P", "T", "--m", "2", "--output", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        "q,d,m,case,ordinary,ss2,ss3,ss4,total,formula_total,chi_distinct,"
        "chi_formula,realized_distinct,ordinary_coverage,discrepancies\n"
        '3,1,2,2,10,0,3,2,15,6,9,6,15,1.0,"formula_total 6 != enumerative '
        'total 15; chi_formula 6 != enumerative chi count 9"\n'
    )


def test_module_csv_output(capsys):
    # the flattened JSON payload, one "key,json value" line per leaf
    code, out, _ = run(capsys, ["charpoly"] + MODULE_ARGS + ["--output", "csv"])
    assert code == 0
    assert out == (
        'module.q,3\nmodule.n,1\nmodule.gamma_T,"0"\nmodule.g,"1"\n'
        'module.delta,"1"\ncharpoly.c,"2"\ncharpoly.mu,"2"\ncharpoly.P,"T"\n'
        "charpoly.m,1\n"
    )
    argv = ["endring", "--p", "7", "--n", "5", "--gamma-T", "0", "--g", "0",
            "--delta", "1", "--output", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        'module.q,7\nmodule.n,5\nmodule.gamma_T,"0,0,0,0,0"\n'
        'module.g,"0,0,0,0,0"\nmodule.delta,"1,0,0,0,0"\ncharpoly.c,"0"\n'
        'charpoly.mu,"6"\ncharpoly.P,"T"\ncharpoly.m,5\n'
        'end_ring_kind,"NON_MAXIMAL_ORDER"\nconductor_g,"T^2"\nomega,"4*T"\n'
        'admissible_conductors,["1", "T", "T^2"]\n'
        'non_coprime_conductors,["T", "T^2"]\n'
    )


def test_census_accepts_machine_poly_and_d_flag(capsys):
    code1, out1, _ = run(capsys, ["census", "--p", "3", "--P", "0,1", "--m", "1"])
    code2, out2, _ = run(capsys, ["census", "--p", "3", "--d", "1", "--m", "1"])
    assert code1 == code2 == 0
    assert json.loads(out1)["total"] == json.loads(out2)["total"] == 6


def test_chi_subcommand(capsys):
    code, out, _ = run(capsys, ["chi", "--p", "3", "--P", "T", "--m", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["chi_distinct_enumerative"] == 3
    assert data["chi_formula"] == 4


def test_realize_subcommand(capsys):
    argv = ["realize", "--p", "3", "--P", "T", "--m", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["realized_distinct"] == 6
    assert data["realized_ordinary_coverage"] == 1.0


def test_realize_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("DRINFELD2_REALIZE_MAX", "2")
    argv = ["realize", "--p", "3", "--P", "T", "--m", "1"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "bound" in err
    monkeypatch.setenv("DRINFELD2_REALIZE_MAX", "abc")
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "DRINFELD2_REALIZE_MAX" in err


def test_domain_error_exit_code(capsys):
    cases = [
        (["charpoly", "--p", "3", "--n", "1", "--gamma-T", "0",
          "--g", "1", "--delta", "0"], "delta"),
        (["census", "--p", "3", "--P", "T^x", "--m", "1"], "bad term 'T^x'"),
        (["census", "--p", "3", "--P", "T^2", "--m", "1"], "monic irreducible"),
        (["chi", "--p", "3", "--P", "2*T", "--m", "1"], "monic irreducible"),
        (["realize", "--p", "3", "--P", "T", "--m", "0"], "m must be >= 1"),
        (["census", "--p", "3", "--d", "0", "--m", "1"], "--d must be >= 1"),
        (["census", "--p", "3", "--s", "0", "--d", "1", "--m", "1"], "s must be >= 1"),
        (["census", "--p", "3", "--P", "", "--m", "1"], "bad field element ''"),
        (["census", "--p", "3", "--P", "T+", "--m", "1"], "dangling sign in 'T+'"),
    ]
    for argv, needle in cases:
        code, out, err = run(capsys, argv)
        assert code == 1
        assert needle in err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


def test_internal_errors_propagate(monkeypatch):
    def broken(dm):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli.frobenius, "charpoly", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["charpoly"] + MODULE_ARGS)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["charpoly", "--p", "3"])
    assert exc.value.code == 2


def test_unknown_subcommand_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_strict_discrepancy_exit_code(capsys):
    argv = ["census", "--p", "3", "--P", "T", "--m", "1", "--strict"]
    code, _, _ = run(capsys, argv)
    assert code == 3


def test_strict_non_integer_formula_total(capsys):
    # (q, d, m) = (3, 3, 1): the case-1 closed form is 58/3
    argv = ["census", "--p", "3", "--d", "3", "--m", "1", "--output", "plain"]
    code, out, _ = run(capsys, argv + ["--strict"])
    assert code == 3
    lines = out.splitlines()
    assert "formula total: None" in lines
    assert "discrepancy: formula_total is not an integer: 58/3" in lines


def test_without_strict_discrepancy_still_succeeds(capsys):
    argv = ["census", "--p", "3", "--P", "T", "--m", "1"]
    code, _, _ = run(capsys, argv)
    assert code == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["charpoly"] + MODULE_ARGS + ["--out", str(target)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["charpoly"]["c"] == "2"


def test_deterministic_output(capsys):
    argv = ["census", "--p", "3", "--P", "T", "--m", "1"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_reducible_P_rejected(capsys):
    argv = ["census", "--p", "3", "--P", "T^2", "--m", "1"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "irreducible" in err
