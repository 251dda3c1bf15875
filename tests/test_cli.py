"""CLI contract: output fields, CSV bytes, exit codes."""

import math
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from millscf import verify
from millscf.cli import _FAMILY_CHOICES, main
from millscf.verify import SUITES


def run_cli(argv, capsys):
    """main() return code, treating argparse's SystemExit as a code."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def parse_kv(out):
    pairs = (line.split(": ", 1) for line in out.strip().splitlines())
    return {k: v for k, v in pairs}


def test_eval_shift_linear_anchor(capsys):
    rc, out, _ = run_cli(["eval", "--x", "0", "--family", "shift-linear",
                          "--n", "3"], capsys)
    assert rc == 0
    rec = parse_kv(out)
    assert rec["value"].startswith("1.25331413731550")
    assert abs(float(rec["error"])) <= 1e-14
    assert "trunc_bound" not in rec


def test_eval_classic_prints_bound(capsys):
    rc, out, _ = run_cli(["eval", "--x", "1", "--family", "classic",
                          "--n", "1"], capsys)
    assert rc == 0
    rec = parse_kv(out)
    assert rec["value"] == "0.5"
    assert rec["bound_side"] == "lower"
    assert float(rec["trunc_bound"]) == pytest.approx(0.5)
    assert float(rec["reference"]) == pytest.approx(0.6556795424187985,
                                                    rel=1e-12)


def test_eval_domain_error(capsys):
    rc, _, err = run_cli(["eval", "--x", "-1", "--family", "classic",
                          "--n", "1"], capsys)
    assert rc == 2
    assert "x >= 0" in err


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_non_finite_x(x, capsys):
    rc, out, err = run_cli(["eval", f"--x={x}"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_bound_past_the_largest_double(capsys):
    rc, out, _ = run_cli(["eval", "--x", "5e-324", "--family", "classic",
                          "--n", "0"], capsys)
    assert rc == 0
    assert parse_kv(out)["trunc_bound"] == "inf"


def test_eval_fold_overflow_exits_2(capsys):
    rc, out, err = run_cli(["eval", "--x", "5e-324", "--family", "classic",
                            "--n", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: level 2 of the fold") and err.count("\n") == 1


def test_eval_unknown_family(capsys):
    rc, _, _ = run_cli(["eval", "--x", "1", "--family", "quintic",
                        "--n", "1"], capsys)
    assert rc == 2


def test_table_csv_contract(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["table", "--xmin", "0", "--xmax", "1", "--step", "0.5",
            "--family", "improved-expo", "--n", "1"]
    assert run_cli(argv + ["--out", str(out_a)], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(out_b)], capsys)[0] == 0
    raw = out_a.read_bytes()
    assert raw == out_b.read_bytes()          # byte-deterministic
    assert b"\r" not in raw                   # LF only
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == "x,approx,reference,error"
    assert len(lines) == 4                    # header + 3 data rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[3])) <= 1e-14      # origin fit
    # every field round-trips through float exactly
    for line in lines[1:]:
        for field in line.split(","):
            assert repr(float(field)) == field


def test_table_degenerate_grid(tmp_path, capsys):
    out = tmp_path / "one.csv"
    # an infinite step leaves one row too, at xmin, never at xmin + 0 * inf
    for xmin, xmax, step in (("2", "2", "0.5"), ("0", "2.5", "inf")):
        rc, _, _ = run_cli(["table", "--xmin", xmin, "--xmax", xmax,
                            "--step", step, "--n", "2", "--out", str(out)],
                           capsys)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == float(xmin)


def test_table_classic_at_zero_rejected(tmp_path, capsys):
    rc, _, err = run_cli(["table", "--xmin", "0", "--xmax", "1", "--step",
                          "0.5", "--family", "classic", "--n", "1",
                          "--out", str(tmp_path / "t.csv")], capsys)
    assert rc == 2
    assert "classic tail beta_1(0.0) = 0.0 is not positive" in err


def test_table_io_error(capsys):
    rc, _, err = run_cli(["table", "--xmin", "0", "--xmax", "1", "--step",
                          "0.5", "--n", "1",
                          "--out", "/no/such/dir/t.csv"], capsys)
    assert rc == 3
    assert "I/O" in err


def test_table_missing_args(capsys):
    rc, _, _ = run_cli(["table", "--xmin", "0"], capsys)
    assert rc == 2


def test_figure_grid_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "f1.csv"
    out_b = tmp_path / "f1b.csv"
    assert run_cli(["figure", "--id", "1", "--out", str(out_a)], capsys)[0] == 0
    assert run_cli(["figure", "--id", "1", "--out", str(out_b)], capsys)[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "x,improved-expo,linear,sqrt"
    assert len(lines) == 602                  # header + 601 grid points
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert all(abs(float(v)) <= 1e-14 for v in first[1:])
    last = lines[-1].split(",")
    assert float(last[0]) == 6.0


def test_figure_custom_column(tmp_path, capsys):
    tail = tmp_path / "tail.csv"
    tail.write_text("x,beta\n0.0,1.0\n1.0,1.6\n2.0,2.4\n4.0,4.2\n6.5,6.7\n")
    out = tmp_path / "f2.csv"
    rc, _, _ = run_cli(["figure", "--id", "2", "--out", str(out),
                        "--tail-file", str(tail)], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,improved-expo,linear,sqrt,custom"
    assert len(lines[1].split(",")) == 5


def test_table_custom_tail(tmp_path, capsys):
    tail = tmp_path / "tail.csv"
    tail.write_text("x,beta\n0.0,1.0\n1.0,1.6\n2.0,2.4\n4.0,4.2\n")
    out = tmp_path / "t.csv"
    rc, _, _ = run_cli(["table", "--xmin", "0", "--xmax", "3", "--step", "0.5",
                        "--family", "custom", "--tail-file", str(tail),
                        "--n", "2", "--out", str(out)], capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 7
    # beta(0) = 1 at n = 2: R_2(0) = 1/(0 + 1/(0 + 2/1)) = 2
    assert rows[0][1] == "2.0"


def test_figure_unknown_id(tmp_path, capsys):
    rc, _, _ = run_cli(["figure", "--id", "4",
                        "--out", str(tmp_path / "f.csv")], capsys)
    assert rc == 2


def test_eval_custom_needs_tail_file(capsys):
    rc, _, err = run_cli(["eval", "--x", "1", "--family", "custom",
                          "--n", "1"], capsys)
    assert rc == 2
    assert "tail-file" in err


def test_maxerr_report(capsys):
    rc, out, _ = run_cli(["maxerr", "--family", "improved-expo",
                          "--nmin", "0", "--nmax", "1"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert "improved-expo" in lines[0]
    assert "n=0" in lines[1] and "published=2.1e-04" in lines[1]
    assert "decays beyond scan: yes" in lines[1]
    ratio = float(lines[1].rsplit("ratio=", 1)[1])
    assert 0.85 <= ratio <= 1.15


def test_maxerr_limit_ansatz_reports_depth_zero_undefined(capsys):
    # R_0 = 1/x vanishes at the scan's first point: one line, then go on
    rc, out, _ = run_cli(["maxerr", "--family", "limit-ansatz",
                          "--nmin", "0", "--nmax", "1"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1] == "n=0  undefined: limit-ansatz with n = 0 vanishes at x = 0"
    assert lines[2].startswith("n=1  max|error|=")


def test_maxerr_reads_undefined_depths_off_the_tail(tmp_path, capsys):
    # a custom tail that vanishes at the scan's first point is undefined at
    # every depth, like limit-ansatz at n = 0; one that is negative there
    # is refused by the fold
    tail = tmp_path / "tail.csv"
    tail.write_text("x,beta\n0.0,0.0\n1.0,1.6\n20.0,20.5\n")
    rc, out, _ = run_cli(["maxerr", "--family", "custom", "--tail-file",
                          str(tail), "--nmin", "0", "--nmax", "1"], capsys)
    assert rc == 0
    assert out.strip().splitlines()[1:] == [
        f"n={n}  undefined: custom with n = {n} vanishes at x = 0"
        for n in (0, 1)]
    tail.write_text("x,beta\n0.0,-1.0\n1.0,1.6\n20.0,20.5\n")
    rc, _, err = run_cli(["maxerr", "--family", "custom", "--tail-file",
                          str(tail), "--nmin", "0", "--nmax", "0"], capsys)
    assert rc == 2
    assert "custom tail beta_0(0.0) = -1.0 is not positive" in err


def test_depths_past_the_rule_exit_2_with_one_error_line(capsys):
    # eval at n = 2**20 + 1 printed a value and exited 0
    for argv in (["eval", "--x", "1.0", "--n", "1048577", "--family", "classic"],
                 ["maxerr", "--nmin", "-1", "--nmax", "0"],
                 ["maxerr", "--nmin", "0", "--nmax", "1048577"]):
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, ""), argv
        assert err.count("error:") == 1 and err.startswith("error: "), argv


def test_verify_subcommand(capsys, monkeypatch):
    rc, out, _ = run_cli(["verify", "--suite", "alternating"], capsys)
    assert rc == 0
    assert out.startswith("PASS alternating")
    with monkeypatch.context() as m:
        real = verify._sign_operator
        m.setattr(verify, "_sign_operator", lambda *args: -real(*args))
        rc, out, _ = run_cli(["verify", "--suite", "sign-identity"], capsys)
    assert rc == 1
    assert out.startswith("FAIL sign-identity")
    rc, _, err = run_cli(["verify", "--suite", "nope"], capsys)
    assert rc == 2
    assert "unknown suite" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "millscf", "eval", "--x", "1",
         "--family", "classic", "--n", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "value: 0.5" in proc.stdout


# the CSV writer before the streamed and the blocked ones: each cell
# through repr(float(v)), one joined line per row
def _old_write_csv(path, header, columns):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _both_writers(argv, out, monkeypatch, capsys):
    """The bytes argv writes to out with the current and the old writer."""
    from millscf import cli

    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    new = out.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(cli, "_write_csv", _old_write_csv)
        assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    return new, out.read_bytes()


def test_table_csv_bytes_match_the_old_writer(tmp_path, monkeypatch, capsys):
    from millscf.cli import _CSV_BLOCK

    out = tmp_path / "t.csv"
    cases = [(["table", "--xmin", xmin, "--xmax", "20", "--step", "0.01",
               "--family", family, "--n", str(n)], None)
             for family, xmin in (("improved-expo", "0"), ("classic", "1"))
             for n in range(4)]
    # one row, and the writer's block edges: xmin 1, step 1 and
    # xmax = rows give exactly rows rows
    cases.append((["table", "--xmin", "0", "--xmax", "2.5", "--step", "inf"],
                  1))
    cases += [(["table", "--xmin", "1", "--xmax", str(rows), "--step", "1"],
               rows) for rows in (_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1)]
    for argv, rows in cases:
        new, old = _both_writers(argv, out, monkeypatch, capsys)
        assert new == old, argv
        assert rows is None or new.count(b"\n") == rows + 1, argv


def test_figure_csv_bytes_match_the_old_writer(tmp_path, monkeypatch, capsys):
    tail = tmp_path / "tail.csv"
    tail.write_text("x,beta\n0.0,1.0\n1.0,1.6\n2.0,2.4\n4.0,4.2\n6.5,6.7\n")
    out = tmp_path / "f.csv"
    for fig in ("1", "2", "3"):
        for extra in ([], ["--tail-file", str(tail)]):
            new, old = _both_writers(["figure", "--id", fig] + extra, out,
                                     monkeypatch, capsys)
            assert new == old, (fig, extra)


# 0, a subnormal, a huge, the non-finite and negative floats, and one plain one
_FLOATS = st.sampled_from(["0", "5e-324", "1e300", "inf", "-inf", "nan",
                           "-1", "2.5"])
_DEPTHS = st.integers(min_value=-1, max_value=3).map(str)
_FAMILIES = st.sampled_from(_FAMILY_CHOICES)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["eval", "table", "maxerr", "verify"]))
    if cmd == "eval":
        return ["eval", "--x", draw(_FLOATS), "--n", draw(_DEPTHS),
                "--family", draw(_FAMILIES)]
    if cmd == "table":
        xmin, xmax, step = draw(_FLOATS), draw(_FLOATS), draw(_FLOATS)
        lo, hi, h = float(xmin), float(xmax), float(step)
        # a grid has (hi - lo)/h + 1 rows; keep the ones that get built small
        assume(not (h > 0.0 and 1e4 < (hi - lo) / h < math.inf))
        return ["table", "--xmin", xmin, "--xmax", xmax, "--step", step,
                "--n", draw(_DEPTHS), "--family", draw(_FAMILIES)]
    if cmd == "maxerr":
        argv = ["maxerr", "--nmin", draw(_DEPTHS), "--nmax", draw(_DEPTHS),
                "--family", draw(_FAMILIES)]
        return argv + draw(st.sampled_from([[], ["--n", "1"]]))
    argv = ["verify"] + draw(st.sampled_from(
        [[], ["--suite", "nope"]] + [["--suite", name] for name in SUITES]))
    return argv + draw(st.sampled_from([[], ["--inject-sign-fault"]]))


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
@example(argv=["maxerr", "--n", "3"])
@example(argv=["verify", "--inject-sign-fault"])
def test_exit_codes_for_any_float_argument(argv, tmp_path_factory):
    if argv[0] == "table":
        argv = argv + ["--out", str(tmp_path_factory.getbasetemp() / "p.csv")]
    try:
        rc = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        rc = exc.code
    assert rc in (0, 2, 3) or (rc == 1 and argv[0] == "verify"), (argv, rc)
    if "--inject-sign-fault" in argv or (argv[0] == "maxerr" and "--n" in argv):
        assert rc == 2, argv   # flags that no longer exist


# tail-file cells: the non-finite floats, 0, a subnormal and a huge value,
# plus plain floats; rows repeat and come in any order
_TAIL_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e308,
                     -1e308]),
    st.floats(min_value=-10.0, max_value=10.0))


@settings(max_examples=100, deadline=None)
@given(fig=st.sampled_from(["1", "2", "3"]),
       rows=st.none() | st.lists(st.tuples(_TAIL_CELLS, _TAIL_CELLS),
                                 max_size=6))
@example(fig="2", rows=[(0.0, 1.0), (1.0, 1.6), (6.5, 6.7)])
@example(fig="1", rows=[(0.0, 1.0), (0.0, 2.0), (1.0, math.nan)])
@example(fig="1", rows=[(0.0, 0.0), (1.0, 1e308)])    # the fit overflows
@example(fig="1", rows=[(0.0, 5e-324), (1.0, 1.0)])   # R_0(0) is inf
def test_figure_exit_codes_for_any_tail_file(fig, rows, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    out = base / "fig.csv"
    out.unlink(missing_ok=True)
    argv = ["figure", "--id", fig, "--out", str(out)]
    if rows is not None:
        tail = base / "tail.csv"
        tail.write_text("x,beta\n" + "".join(f"{x!r},{b!r}\n" for x, b in rows))
        argv += ["--tail-file", str(tail)]
    rc = main(argv)
    assert rc in (0, 2, 3), (argv, rows, rc)
    if rc == 0:
        lines = out.read_text().splitlines()
        assert len(lines) == 602, rows
        cells = [float(v) for line in lines[1:] for v in line.split(",")]
        assert all(math.isfinite(v) for v in cells), rows
