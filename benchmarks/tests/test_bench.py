"""Tests of the benchmark harness itself (not part of the library's suite).

    python -m pytest benchmarks/tests -q

A tiny run of every workload, traced and untraced, must be correct and
print exactly the metrics BENCHMARK.json declares; seeds must be
reproducible; the output checks must reject wrong values; and a checkout
without the program must fail without printing a result.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def workdir():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        yield Path(tmp)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_never_their_size(workload, workdir):
    def generate(seed):
        seed_dir = workdir / f"seed{seed}-{len(list(workdir.iterdir()))}"
        seed_dir.mkdir()
        work = workloads.setup(workload, seed, "full", seed_dir)
        items, files = work.items()
        return inputs.digest(items, files), inputs.sizes(items)

    digest_a, sizes_a = generate(11)
    digest_b, sizes_b = generate(11)
    digest_c, sizes_c = generate(12)
    assert digest_a == digest_b
    assert digest_a != digest_c
    assert sizes_a == sizes_c


def test_checks_reject_wrong_outputs():
    work = workloads.setup("closure", 5, "tiny", BENCH)
    ops = work._ops()
    for cell in work.cells[:40]:
        out = ops[cell.op](cell.arg, cell.x, cell.y)
        assert ref.check_cell(cell, out) is None
        if cell.op in ("rho_e", "rho_T", "P_T"):
            wrong = dataclasses.replace(out, c=out.c * (1.0 + 1e-5))
            assert ref.check_cell(cell, wrong) is not None


def test_sweep_check_places_domain_errors_exactly(workdir):
    import contextlib
    import io
    import redeos.cli
    cmd = workloads.setup("cli-grid", 5, "tiny", workdir).commands[0]
    assert cmd.argv[:4] == ("sweep", cmd.argv[1], "--model", "na")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = redeos.cli.main(list(cmd.argv))
    problem, rows, domain = ref.check_command(cmd, code, out.getvalue(), "")
    assert problem is None and code == 4 and 0 < domain < rows
    lines = out.getvalue().splitlines()
    first_bad = next(k for k, line in enumerate(lines) if "E_DOMAIN" in line)
    lines[first_bad - 1] = lines[first_bad - 1].split(",")[0] + ",,,E_DOMAIN,"
    assert ref.check_command(cmd, code, "\n".join(lines) + "\n", "")[0] is not None
    assert ref.check_command(cmd, 0, out.getvalue(), "")[0] is not None


def test_fails_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, workdir / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(workdir, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
