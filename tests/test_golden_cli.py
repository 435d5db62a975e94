"""Byte-for-byte regression of the CLI against recorded output.

``golden_cli.json`` holds the exit code, stdout and stderr of every command
below, plus the database file the calibration commands write, as produced
before the per-model dispatch was folded into one table.  Three VO1_CVT
lines were re-recorded when its sound speed, Cp and gamma moved from the
finite-difference oracle to closed forms: the c of ``state NC-13 --rho 100
--e 4556.4`` and the Cp of ``state QX --rho 250 --e 5000`` now print the
correctly rounded digit, and the ``c_analytic - c_oracle`` line of ``audit
QX`` compares a real closed form instead of reporting 0.  The stderr of the
three ``state QX ... --e -1000`` commands was re-recorded when ``state``
began naming the energy in kJ/kg, as given, instead of the converted J/kg
value.  When the Cv(T) fit moved from numpy's LU solve to a plain-Python
eigen-solve of the same normal equations, the ``residual norm`` line of the
two ``calibrate-cvt`` commands (3.157201804e-06 to 3.157201798e-06 kJ/kg,
the rounding noise of a clean fit) and the Cv0, c, q_kJ and e_s_eff_kJ of
the written ``QX-cvt`` record (each within 2e-11 relative) were
re-recorded; the printed Cv0, c, q and condition did not change.  When
the difference oracle's temperature inversions began to start from its own
linearisation and to take its own P_T as their slope, the sound-speed and
oracle-forms residual lines of the four ``audit`` commands were re-recorded
(each now below 1e-9, where they read up to 8.7e-9; every verdict and the
Maxwell line did not change).  When the oracle's differences dropped
their Richardson pass for one central difference, the three residual
lines of the same four ``audit`` commands were re-recorded again (each
now below 1.3e-10, where they read up to 8.9e-10; every verdict did not
change).  The commands are
the 13 of acceptance criterion 11 and, for each model, ``state``, ``sweep``
and ``audit`` on a record whose caloric reference q is nonzero: the built-in
records all have q = 0, so they cannot show how the caloric law treats it.
For the same reason an MNA and an MVO1 ``mix-sweep`` run on a pair of such
records (QX+QY); they were recorded before the mixtures were rebuilt on one
mass-weighted record.  Temporary paths are replaced by ``<tmp>``.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

from redeos.cli import main

from conftest import write_dilution_runs_csv

FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")

Q_DB = """\
[material "QX" model NA]
R = 338.9
b = 0.001484
Cv = 1637.1
q_kJ = -412.3456789
e_s_eff_kJ = 5360.7
T_flame = 3275.0
rho_range = 100.0 150.0

[material "QX" model VO1]
R = 322.0
a = 0.002359
Cv = 1640.5
q_kJ = 287.1234567
e_s_eff_kJ = 5371.9
T_flame = 3275.0
rho_range = 100.0 150.0

[material "QX" model VO1_CVT]
R = 322.0
a = 0.002359
Cv0 = 1416.8
c = 0.0637
q_kJ = -424.9876543
e_s_eff_kJ = 4980.7
T_flame = 3275.0
rho_range = 100.0 150.0

[material "QY" model NA]
R = 346.2
b = 0.00144
Cv = 1640.9
q_kJ = 163.4567891
e_s_eff_kJ = 6629.3
T_flame = 4040.0
rho_range = 100.0 150.0

[material "QY" model VO1]
R = 330.1
a = 0.002251
Cv = 1643.2
q_kJ = -351.9876543
e_s_eff_kJ = 6638.7
T_flame = 4040.0
rho_range = 100.0 150.0
"""


def commands(tmp):
    points = tmp / "nc13.csv"
    points.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    runs = tmp / "runs.csv"
    e_s_i = f"{write_dilution_runs_csv(runs) / 1e3:.10g}"
    qdb = tmp / "q.eosdb"
    qdb.write_text(Q_DB)
    out = tmp / "out.eosdb"

    argvs = [  # acceptance criterion 11
        ["calibrate", "na", "--points", points, "--tflame", "3275", "--gamma", "1.207", "--name", "NC-13"],
        ["calibrate", "vo1", "--points", points, "--tflame", "3275", "--gamma", "1.207", "--name", "NC-13"],
        ["calibrate-cvt", "--runs", runs, "--inert", "argon", "--es-i", e_s_i],
        ["sweep", "NC-13", "--model", "na", "--rho", "100:700:100"],
        ["sweep", "NC-13", "--model", "vo1", "--rho", "100:400:50"],
        ["sweep", "NC-13", "--model", "vo1cvt", "--rho", "100:200:50"],
        ["mix-sweep", "NC-13+RDX", "--model", "mna", "--rho", "100,200,400",
         "--fraction-sweep", "0:0.5:0.1", "--same-oxygen-balance"],
        ["mix-sweep", "NC-13+HMX", "--model", "mvo1", "--rho", "200",
         "--fraction-sweep", "0:0.5:0.25", "--same-oxygen-balance"],
        ["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100", "--same-oxygen-balance"],
        ["audit", "NC-13", "--model", "vo1", "--rho", "50:600:275", "--T", "1500:4500:1500"],
        ["state", "NC-13", "--model", "na", "--rho", "100", "--T", "3275"],
        ["state", "NC-13", "--model", "vo1", "--P", "130.33", "--T", "3275"],
        ["state", "NC-13", "--model", "vo1cvt", "--rho", "100", "--e", "4556.4"],
    ]
    for model in ("na", "vo1", "vo1cvt"):
        argvs += [
            ["state", "QX", "--model", model, "--rho", "100", "--T", "3275", "--db", qdb],
            ["state", "QX", "--model", model, "--P", "130.33", "--T", "3275", "--db", qdb],
            ["state", "QX", "--model", model, "--rho", "250", "--e", "5000", "--db", qdb],
            ["state", "QX", "--model", model, "--rho", "100", "--e", "-1000", "--db", qdb],
            ["sweep", "QX", "--model", model, "--rho", "100:700:100", "--db", qdb],
            ["audit", "QX", "--model", model, "--rho", "100:500:200", "--T", "2000:4000:1000", "--db", qdb],
        ]
    argvs += [
        ["state", "NC-13", "--model", "na", "--rho", "700", "--T", "3000"],
        ["calibrate", "na", "--points", points, "--tflame", "3275", "--gamma", "1.207",
         "--name", "NC-13", "--db", out],
        ["calibrate-cvt", "--runs", runs, "--inert", "argon", "--es-i", e_s_i, "--db", out,
         "--name", "QX-cvt", "--base", "QX", "--base-db", qdb],
        ["state", "QX-cvt", "--model", "vo1cvt", "--rho", "150", "--T", "3000", "--db", out],
    ]
    for model in ("mna", "mvo1"):
        argvs.append(["mix-sweep", "QX+QY", "--model", model, "--rho", "100,250,400",
                      "--fraction-sweep", "0:1:0.25", "--same-oxygen-balance", "--db", qdb])
    return [[str(arg) for arg in argv] for argv in argvs], out


def record(tmp):
    """Every command's (argv, code, stdout, stderr), then the written database."""
    argvs, out = commands(tmp)
    results = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        results.append({"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    results.append({"database": out.read_text()})
    return json.loads(json.dumps(results).replace(str(tmp), "<tmp>"))


def test_cli_output_matches_recording(tmp_path):
    want = json.loads(FIXTURE.read_text())
    got = record(tmp_path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(json.dumps(record(pathlib.Path(tmp)), indent=1) + "\n")
