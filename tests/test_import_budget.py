"""The import budget: the library needs nothing outside the standard library,
and a command loads only the library modules it runs.

The Cv(T) fit, once the one numpy user, is plain Python, so every `eos`
command runs in an interpreter started without site-packages.  `calibration`,
`mixture` and `numerics` load on first use, so `import redeos` and `eos state`
compile and run none of them.  The validated records are plain frozen
classes, and the one dataclass, `ThermoState`, loads with the first full
state, so only `eos state` imports `dataclasses` and `inspect`, a third of
the library's import time.  The library import and the commands run in a
fresh interpreter here, so that no module the test runner has already
imported can hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import redeos as rx

from conftest import write_dilution_runs_csv

SRC = Path(rx.__file__).resolve().parents[1]

_CHILD = """
import contextlib, io, json, sys
import redeos, redeos.cli
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = redeos.cli.main(argv)
fit = redeos.lsq_fit_3(*json.loads(sys.argv[2]))
print(json.dumps({"codes": codes, "fit": [float.hex(x) for x in fit], "site": "site" in sys.modules,
                  "numpy": "numpy" in sys.modules, "resources": "importlib.resources" in sys.modules}))
"""

#: A consistent Cv(T) system: Cv0 = 1416.8 J/kg/K, c = 0.0637 J/kg/K2, q = -450 kJ/kg.
TEMPERATURES = [1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0]
TARGETS = [1416.8 * t + 0.5 * 0.0637 * t * t - 450e3 for t in TEMPERATURES]


def test_every_command_runs_without_site_packages(tmp_path):
    points, runs = tmp_path / "points.csv", tmp_path / "runs.csv"
    points.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    e_s_i = f"{write_dilution_runs_csv(runs) / 1e3:.10g}"
    argvs = [
        ["state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000"],
        ["sweep", "NC-13", "--model", "na", "--rho", "50:150:50"],
        ["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100", "--same-oxygen-balance"],
        ["audit", "NC-13", "--model", "vo1", "--rho", "100:200:100", "--T", "3000:3500:500"],
        ["calibrate", "na", "--points", str(points), "--tflame", "3275", "--gamma", "1.207",
         "--db", str(tmp_path / "out.eosdb")],
        ["calibrate-cvt", "--runs", str(runs), "--inert", "argon", "--es-i", e_s_i,
         "--db", str(tmp_path / "cvt.eosdb"), "--name", "NC-13-cvt", "--base", "NC-13"],
    ]
    # -S: no site module, so no site-packages on the path and numpy cannot be imported
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, json.dumps(argvs), json.dumps([TEMPERATURES, TARGETS])],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)

    assert child["codes"] == {argv[0]: 0 for argv in argvs}
    assert child["site"] is False and child["numpy"] is False
    # the packaged table is read as a --db file is, so no command imports importlib.resources;
    # a module once loaded stays in sys.modules, so the check after the last command covers them all
    assert child["resources"] is False
    # the fit returns what an in-process fit returns, bit for bit
    assert child["fit"] == [float.hex(x) for x in rx.lsq_fit_3(TEMPERATURES, TARGETS)]


_MODULES_CHILD = """
import contextlib, io, json, sys
import redeos, redeos.cli
watched = ("redeos.calibration", "redeos.mixture", "redeos.numerics", "redeos.thermo_state", "dataclasses",
           "inspect")
loaded = [["import", [m for m in watched if m in sys.modules], 0]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = redeos.cli.main(argv)
    loaded.append([argv[0], [m for m in watched if m in sys.modules], code])
print(json.dumps(loaded))
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    points, runs = tmp_path / "points.csv", tmp_path / "runs.csv"
    points.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    e_s_i = f"{write_dilution_runs_csv(runs) / 1e3:.10g}"
    argvs = [
        ["sweep", "NC-13", "--model", "na", "--rho", "50:150:50"],
        ["calibrate", "na", "--points", str(points), "--tflame", "3275", "--gamma", "1.207"],
        ["calibrate-cvt", "--runs", str(runs), "--inert", "argon", "--es-i", e_s_i],
        ["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mna", "--rho", "100", "--same-oxygen-balance"],
        ["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100", "--same-oxygen-balance"],
        ["audit", "NC-13", "--model", "vo1", "--rho", "100:200:100", "--T", "3000:3500:500"],
    ]

    def loaded(argvs):
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_CHILD, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    # `state` runs in its own interpreter, so its row shows only what it loads
    assert loaded([["state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000"]]) == [
        ["import", [], 0],
        ["state", ["redeos.thermo_state", "dataclasses", "inspect"], 0],
    ]
    # the sets accumulate: each step lists what is loaded after it
    every = ["redeos.calibration", "redeos.mixture", "redeos.numerics"]
    assert loaded(argvs) == [
        ["import", [], 0],
        ["sweep", [], 0],
        ["calibrate", ["redeos.calibration"], 0],
        ["calibrate-cvt", ["redeos.calibration"], 0],
        ["mix-sweep", every, 0],  # mixture imports numerics' root solver
        ["mix-sweep", every, 0],
        ["audit", every, 0],
    ]
