"""The import budget: numpy is loaded by the Cv(T) fit and by nothing else,
and a command loads only the library modules it runs.

numpy costs about as much start-up time as the rest of an `eos` process, and
only `lsq_fit_3` (the `calibrate-cvt` command) uses it.  `calibration`,
`mixture` and `numerics` load on first use, so `import redeos` and `eos state`
compile and run none of them.  The library import and the commands run in a
fresh interpreter here, so that no module the test runner has already
imported can hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import redeos as rx

SRC = Path(rx.__file__).resolve().parents[1]

_CHILD = """
import contextlib, io, json, sys
import redeos, redeos.cli
loaded = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = redeos.cli.main(argv)
    loaded[argv[0]] = ("numpy" in sys.modules, code)
fit = redeos.lsq_fit_3(*json.loads(sys.argv[2]))
loaded["fit"] = ("numpy" in sys.modules, [float.hex(x) for x in fit.__dict__.values()])
print(json.dumps(loaded))
"""

#: A consistent Cv(T) system: Cv0 = 1416.8 J/kg/K, c = 0.0637 J/kg/K2, q = -450 kJ/kg.
TEMPERATURES = [1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0]
TARGETS = [1416.8 * t + 0.5 * 0.0637 * t * t - 450e3 for t in TEMPERATURES]


def test_numpy_is_loaded_only_by_the_fit(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    argvs = [
        ["state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000"],
        ["sweep", "NC-13", "--model", "na", "--rho", "50:150:50"],
        ["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100", "--same-oxygen-balance"],
        ["audit", "NC-13", "--model", "vo1", "--rho", "100:200:100", "--T", "3000:3500:500"],
        ["calibrate", "na", "--points", str(points), "--tflame", "3275", "--gamma", "1.207",
         "--db", str(tmp_path / "out.eosdb")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs), json.dumps([TEMPERATURES, TARGETS])],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)

    assert loaded.pop("import") is False
    fit_loaded, fit = loaded.pop("fit")
    assert loaded == {argv[0]: [False, 0] for argv in argvs}
    # the fit loads numpy itself and returns what an in-process fit returns, bit for bit
    assert fit_loaded is True
    assert fit == [float.hex(x) for x in rx.lsq_fit_3(TEMPERATURES, TARGETS).__dict__.values()]


_MODULES_CHILD = """
import contextlib, io, json, sys
import redeos, redeos.cli
watched = ("redeos.calibration", "redeos.mixture", "redeos.numerics", "numpy")
loaded = [["import", [m for m in watched if m in sys.modules], 0]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = redeos.cli.main(argv)
    loaded.append([argv[0], [m for m in watched if m in sys.modules], code])
print(json.dumps(loaded))
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    argvs = [
        ["state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000"],
        ["sweep", "NC-13", "--model", "na", "--rho", "50:150:50"],
        ["calibrate", "na", "--points", str(points), "--tflame", "3275", "--gamma", "1.207"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    # the sets accumulate: each step lists what is loaded after it
    assert json.loads(proc.stdout) == [
        ["import", [], 0],
        ["state", [], 0],
        ["sweep", ["redeos.calibration"], 0],
        ["calibrate", ["redeos.calibration"], 0],
    ]
