import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import redeos as rx
from redeos.cli import _build_parser, _fmt, _parse_range, main

from conftest import write_dilution_runs_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def points_nc13(tmp_path):
    path = tmp_path / "nc13.csv"
    path.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    return str(path)


@pytest.fixture
def points_rdx(tmp_path):
    path = tmp_path / "rdx.csv"
    path.write_text("rho_kg_m3,pmax_MPa\n100,163.4\n150,267.6\n")
    return str(path)


def csv_rows(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestCalibrate:
    def test_noble_abel_table_values(self, capsys, points_nc13):
        code, out, _ = run_cli(capsys, "calibrate", "na", "--points", points_nc13,
                               "--tflame", "3275", "--gamma", "1.207", "--name", "NC-13")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().split("\n")[1:])
        assert float(values["R (J/kg/K)"]) == pytest.approx(338.9, rel=1e-3)
        assert float(values["b (m3/kg)"]) == pytest.approx(0.001484, rel=1e-3)
        assert float(values["Cv (J/kg/K)"]) == pytest.approx(1637.2, rel=1e-3)
        assert float(values["e_s_eff (kJ/kg)"]) == pytest.approx(5362.0, rel=1e-3)

    def test_virial_gamma_independent_values(self, capsys, points_rdx):
        # a and R do not involve gamma, so even the source table's printed
        # 1.214 hands back the published pair
        code, out, _ = run_cli(capsys, "calibrate", "vo1", "--points", points_rdx,
                               "--tflame", "4040", "--gamma", "1.214", "--name", "RDX")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().split("\n")[1:])
        assert float(values["a (m3/kg)"]) == pytest.approx(0.002249, rel=1e-3)
        assert float(values["R (J/kg/K)"]) == pytest.approx(330.2, rel=1e-3)

    @pytest.mark.parametrize("model", ["na", "vo1"])
    def test_printed_gamma_reads_back(self, capsys, points_nc13, model):
        # 10 digits once printed 1.0000000000000002 as 1, which the calibration refuses
        argv = ["calibrate", model, "--points", points_nc13, "--tflame", "3275", "--gamma"]
        code, out, _ = run_cli(capsys, *argv, "1.0000000000000002")
        assert code == 0
        printed = dict(line.split(" = ") for line in out.strip().split("\n")[1:])["gamma"]
        assert printed == "1.0000000000000002"
        code, again, _ = run_cli(capsys, *argv, printed)
        assert code == 0 and again == out

    def test_three_points_rejected(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n125,170\n150,214.1\n")
        code, _, err = run_cli(capsys, "calibrate", "na", "--points", str(path),
                               "--tflame", "3275", "--gamma", "1.207")
        assert code == 2
        assert err.startswith("E_VALIDATION:")
        assert "exactly two points" in err

    def test_appends_to_database(self, capsys, points_nc13, tmp_path):
        dbfile = tmp_path / "local.eosdb"
        code, out, _ = run_cli(capsys, "calibrate", "na", "--points", points_nc13,
                               "--tflame", "3275", "--gamma", "1.207",
                               "--name", "NC-13", "--db", str(dbfile))
        assert code == 0
        assert f"saved to {dbfile}" in out
        saved = rx.load_material_db(dbfile)
        assert saved.get("NC-13", rx.Model.NA).R == pytest.approx(338.83, rel=1e-4)

    @pytest.mark.parametrize("name", ['a"b', "a\nb"], ids=["quote", "newline"])
    @pytest.mark.parametrize("existing", [None, '[material "X" model NA]\nR = 300\nb = 0.001\nCv = 1500\n'],
                             ids=["new-db", "existing-db"])
    def test_unreadable_name_leaves_the_database_untouched(self, capsys, points_nc13, tmp_path, name, existing):
        # the record is refused before the file is opened: exit 2, stdout empty, the file as it was
        dbfile = tmp_path / "x.eosdb"
        if existing is not None:
            dbfile.write_text(existing)
        code, out, err = run_cli(capsys, "calibrate", "na", "--points", points_nc13, "--tflame", "3275",
                                 "--gamma", "1.207", "--name", name, "--db", str(dbfile))
        assert (code, out) == (2, "")
        assert err == f"E_VALIDATION: record {name!r} (NA): a saved name is a one-line string without '\"'\n"
        assert (dbfile.read_text() if existing else dbfile.exists()) == (existing or False)


class TestCalibrateCvt:
    def test_recovers_published_cvt_parameters(self, capsys, tmp_path):
        runs = tmp_path / "runs.csv"
        e_s_i = write_dilution_runs_csv(runs)
        code, out, _ = run_cli(capsys, "calibrate-cvt", "--runs", str(runs),
                               "--inert", "argon", "--es-i", f"{e_s_i / 1e3:.10g}")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().split("\n")[1:])
        assert float(values["Cv0 (J/kg/K)"]) == pytest.approx(1416.8, rel=1e-4)
        assert float(values["c (J/kg/K2)"]) == pytest.approx(0.0637, rel=1e-4)

    def test_writes_record_from_base(self, capsys, tmp_path):
        runs = tmp_path / "runs.csv"
        e_s_i = write_dilution_runs_csv(runs)
        dbfile = tmp_path / "local.eosdb"
        code, out, _ = run_cli(capsys, "calibrate-cvt", "--runs", str(runs),
                               "--inert", "argon", "--es-i", f"{e_s_i / 1e3:.10g}",
                               "--db", str(dbfile), "--name", "NC-13-cvt", "--base", "NC-13")
        assert code == 0
        record = rx.load_material_db(dbfile).get("NC-13-cvt", rx.Model.VO1_CVT)
        assert record.R == 322.0
        assert record.a == 0.002359
        assert record.Cv0 == pytest.approx(1416.8, rel=1e-4)
        assert record.T_flame == 3275.0

    def test_written_effective_energy_is_the_caloric_laws(self, capsys, tmp_path):
        # at 3144 K the fit's Cv0 T + (c/2) T**2, as once written, differs from the law's last bit
        runs = tmp_path / "runs.csv"
        e_s_i = write_dilution_runs_csv(runs)
        dbfile = tmp_path / "local.eosdb"
        code, _, _ = run_cli(capsys, "calibrate-cvt", "--runs", str(runs), "--inert", "argon",
                             "--es-i", f"{e_s_i / 1e3:.10g}", "--db", str(dbfile), "--name", "N",
                             "--base", "NC-13", "--tflame", "3144")
        assert code == 0
        record = rx.load_material_db(dbfile).get("N", rx.Model.VO1_CVT)
        assert rx.cvt_effective_energy(record, record.T_flame) == record.e_s_eff
        assert record.e_s_eff != record.Cv0 * 3144.0 + 0.5 * record.c * 3144.0**2

    def test_db_requires_name_and_base(self, capsys, tmp_path):
        runs = tmp_path / "runs.csv"
        e_s_i = write_dilution_runs_csv(runs)
        code, _, err = run_cli(capsys, "calibrate-cvt", "--runs", str(runs),
                               "--inert", "argon", "--es-i", f"{e_s_i / 1e3:.10g}",
                               "--db", str(tmp_path / "x.eosdb"))
        assert code == 2
        assert err.startswith("E_VALIDATION:")


#: A Noble-Abel record whose flame temperature e / Cv overflows to inf.
OVERFLOWING_FLAME = '[material "X" model NA]\nR = 338.9\nb = 0.001484\nCv = 1e-310\ne_s_eff_kJ = 5360.7\n'


class TestSweep:
    def test_virial_density_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "NC-13", "--model", "vo1", "--rho", "100:400:50")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["rho_kg_m3", "tflame_K", "pmax_MPa", "extrapolated", "c_m_s"]
        assert len(rows) == 7
        by_rho = {float(r[0]): r for r in rows}
        assert float(by_rho[100.0][2]) == pytest.approx(130.3, rel=1e-3)
        assert float(by_rho[400.0][2]) == pytest.approx(819.9, rel=1e-3)
        assert by_rho[100.0][3] == "0"
        assert by_rho[400.0][3] == "1"

    def test_noble_abel_extrapolates_high(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "NC-13", "--model", "na", "--rho", "100:400:100")
        assert code == 0
        _, rows = csv_rows(out)
        by_rho = {float(r[0]): r for r in rows}
        assert float(by_rho[400.0][2]) == pytest.approx(1092.4, rel=1e-3)
        assert by_rho[400.0][3] == "1"

    def test_covolume_singularity_row(self, capsys):
        # 1/b = 673.9 kg/m3 sits inside this grid
        code, out, _ = run_cli(capsys, "sweep", "NC-13", "--model", "na", "--rho", "600:700:25")
        assert code == 4
        _, rows = csv_rows(out)
        flags = {float(r[0]): r[3] for r in rows}
        assert flags[650.0] == "1"
        assert flags[675.0] == "E_DOMAIN"
        assert flags[700.0] == "E_DOMAIN"

    def test_reference_column(self, capsys, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("rho_kg_m3,pmax_MPa\n100,132.0\n")
        code, out, _ = run_cli(capsys, "sweep", "NC-13", "--model", "vo1",
                               "--rho", "100:150:50", "--reference", str(ref))
        assert code == 0
        header, rows = csv_rows(out)
        assert header[-1] == "pref_MPa"
        assert float(rows[0][-1]) == 132.0
        assert rows[1][-1] == ""

    def test_unknown_material(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "TNT", "--model", "na", "--rho", "100:150:50")
        assert code == 2
        assert err.startswith("E_VALIDATION:")

    def test_cvt_sweep_runs(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "NC-13", "--model", "vo1cvt", "--rho", "100:150:50")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == pytest.approx(130.3, rel=2e-3)

    @pytest.mark.parametrize("record, model, code, err", [
        # Cv0^2 + 2 c e < 0: the caloric law has no real flame temperature
        ('[material "X" model VO1_CVT]\nR = 322\na = 0.002359\nCv0 = 1000\nc = -0.5\ne_s_eff_kJ = 2000\n',
         "vo1cvt", 4, "E_DOMAIN: caloric law has no real temperature for e = 2000000.0 J/kg\n"),
        # e / Cv overflows to an infinite flame temperature, which the record alone sets
        (OVERFLOWING_FLAME, "na", 3, "E_NUMERICAL: floating-point evaluation failed at the flame temperature of X\n"),
    ], ids=["flame-refused", "flame-overflows"])
    def test_flame_edges(self, capsys, tmp_path, record, model, code, err):
        # the table prints after its last row, so a refused flame leaves stdout empty, as in mix-sweep
        db = tmp_path / "flame.eosdb"
        db.write_text(record)
        got = run_cli(capsys, "sweep", "X", "--model", model, "--rho", "-10:10:10", "--db", str(db))
        assert got == (code, "", err)


class TestGridsAtBenchmarkSizes:
    """`sweep` and `mix-sweep` at the sizes the benchmark's grid commands run, byte for byte against rows
    formatted here from the kernels' closure at the flame temperature, which binds the commands' compiled
    closures to the kernels row by row."""

    @pytest.mark.parametrize("model, grid", [
        ("na", "10:728.8:1.2"),  # crosses 1/b = 673.9 kg/m3 into E_DOMAIN rows
        ("vo1", "10.5:609.5:1"),
        ("vo1cvt", "10.5:609.5:1"),
    ])
    def test_600_point_sweep(self, capsys, db, model, grid):
        params = db.get("NC-13", {"na": rx.Model.NA, "vo1": rx.Model.VO1, "vo1cvt": rx.Model.VO1_CVT}[model])
        T_flame = rx.cvt_temperature(params, params.q + params.e_s_eff)
        lo, hi = params.rho_range
        rows, domain_rows = ["rho_kg_m3,tflame_K,pmax_MPa,extrapolated,c_m_s"], 0
        for rho in _parse_range(grid):
            try:
                P, _, c = rx.closure_from_rho_T(params, rho, T_flame)
                flag = "0" if lo <= rho <= hi else "1"
                rows.append(f"{_fmt(rho)},{_fmt(T_flame)},{_fmt(P / 1e6)},{flag},{_fmt(c)}")
            except rx.DomainError:
                domain_rows += 1
                rows.append(f"{_fmt(rho)},,,E_DOMAIN,")
        assert len(rows) == 601 and (domain_rows > 0) == (model == "na")
        code, out, err = run_cli(capsys, "sweep", "NC-13", "--model", model, "--rho", grid)
        assert (code, err) == (4 if domain_rows else 0, "")
        assert out == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("model", ["mna", "mvo1"])
    def test_20_by_20_fraction_sweep(self, capsys, db, model):
        gases = [db.get(name, rx.Model.NA if model == "mna" else rx.Model.VO1) for name in ("NC-13", "RDX")]
        densities = [15.0 + 30.0 * k for k in range(20)]
        rows = ["Y,rho_kg_m3,tflame_K,pmax_MPa,c_m_s"]
        for y in _parse_range("0.05:0.905:0.045"):
            mix = rx.MixtureSpec(((gases[0], 1.0 - y), (gases[1], y)), oxygen_balance_declared_uniform=True)
            T_flame = rx.mixture_flame_temperature(mix)
            for rho in densities:
                P, _, c = (rx.closure_from_rho_T(mix.mixed, rho, T_flame) if model == "mna"
                           else rx.mvo1_closure_from_rho_T(mix, rho, T_flame))
                rows.append(f"{_fmt(y)},{_fmt(rho)},{_fmt(T_flame)},{_fmt(P / 1e6)},{_fmt(c)}")
        assert len(rows) == 401
        code, out, err = run_cli(capsys, "mix-sweep", "NC-13+RDX", "--model", model, "--fraction-sweep",
                                 "0.05:0.905:0.045", "--rho", ",".join(map(repr, densities)), "--same-oxygen-balance")
        assert (code, err) == (0, "")
        assert out == "\n".join(rows) + "\n"


class TestMixSweep:
    def test_equal_split_flame_temperature(self, capsys):
        code, out, _ = run_cli(capsys, "mix-sweep", "NC-13+RDX", "--model", "mna",
                               "--rho", "200", "--fraction-sweep", "0:0.5:0.1",
                               "--same-oxygen-balance")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["Y", "rho_kg_m3", "tflame_K", "pmax_MPa", "c_m_s"]
        by_y = {float(r[0]): r for r in rows}
        assert float(by_y[0.5][2]) == pytest.approx(3657.7, rel=1e-4)

    def test_zero_fraction_matches_single_material(self, capsys):
        code, out, _ = run_cli(capsys, "mix-sweep", "NC-13+RDX", "--model", "mvo1",
                               "--rho", "100", "--fraction-sweep", "0:0:1",
                               "--same-oxygen-balance")
        assert code == 0
        _, rows = csv_rows(out)
        code2, out2, _ = run_cli(capsys, "sweep", "NC-13", "--model", "vo1", "--rho", "100:100:1")
        assert code2 == 0
        _, rows2 = csv_rows(out2)
        assert float(rows[0][3]) == pytest.approx(float(rows2[0][2]), rel=1e-9)
        assert float(rows[0][4]) == pytest.approx(float(rows2[0][4]), rel=1e-9)

    @pytest.mark.parametrize("spec, sweep, named", [
        ("X=0.5,Y=0.5", [], "X=0.5,Y=0.5"),
        ("X+Y", ["--fraction-sweep", "0:1:0.5"], "X=1,Y=0"),  # the first fraction set of the sweep
    ], ids=["fixed", "fraction-sweep"])
    def test_overflowing_flame_names_the_mixture(self, capsys, tmp_path, spec, sweep, named):
        # the table prints after its last row, so stdout stays empty, and the line names
        # the fractions that set the flame, not --rho
        db = tmp_path / "flame.eosdb"
        db.write_text(OVERFLOWING_FLAME + "\n" + OVERFLOWING_FLAME.replace('"X"', '"Y"'))
        got = run_cli(capsys, "mix-sweep", spec, "--model", "mna", "--rho", "100", *sweep,
                      "--same-oxygen-balance", "--db", str(db))
        assert got == (3, "", f"E_NUMERICAL: floating-point evaluation failed at the flame temperature of {named}\n")

    def test_refuses_without_declaration(self, capsys):
        code, _, err = run_cli(capsys, "mix-sweep", "NC-13+RDX", "--model", "mna",
                               "--rho", "200", "--fraction-sweep", "0:0.5:0.1")
        assert code == 2
        assert err.startswith("E_VALIDATION:")
        assert "oxygen-balance" in err

    @pytest.mark.parametrize("argv, named", [
        (["NC-13+RDX", "--rho", "", "--fraction-sweep", "0:1:0.5"], "--rho needs at least one density, got ''"),
        (["NC-13+RDX", "--rho", ",", "--fraction-sweep", "0:1:0.5"], "--rho needs at least one density, got ','"),
        (["NC-13=0.5,RDX=0.5", "--rho", "100", "--fraction-sweep", "0:1:0.5"],
         "--fraction-sweep needs an A+B mixture spec, got fixed fractions 'NC-13=0.5,RDX=0.5'"),
    ], ids=["rho-empty", "rho-comma", "fixed-fractions-swept"])
    def test_refuses_what_it_would_ignore(self, capsys, argv, named):
        # each once exited 0: an empty --rho with a bare header, a fraction sweep of fixed fractions
        # with the fixed fractions' rows
        code, out, err = run_cli(capsys, "mix-sweep", argv[0], "--model", "mna", *argv[1:], "--same-oxygen-balance")
        assert (code, out) == (2, "")
        assert err == f"E_VALIDATION: {named}\n"

    def test_mvo1_wide_bracket_state_is_the_pressure_solve(self, capsys, tmp_path):
        # the closure once printed 9.0000015e+72 MPa here and exited 0 while mvo1_pressure refused
        # the cell with a volume residual of 0.9989; later both refused it, as solve_monotone stopped
        # short of the root on a bracket 2e38 times its bottom.  Now the row is the converged
        # pressure solve, where STIFF's part in a million takes nearly all the volume
        dbfile = tmp_path / "wide.eosdb"
        dbfile.write_text(''.join(f'[material "{name}" model VO1]\nR = {R}\na = {a}\nCv = 1000\n'
                                  'e_s_eff_kJ = 3000\nT_flame = 3000\n\n'
                                  for name, R, a in (("IDEAL", 300, 1e-300), ("STIFF", 350, 0.001))))
        code, out, err = run_cli(capsys, "mix-sweep", "IDEAL=0.999999,STIFF=0.000001", "--model", "mvo1",
                                 "--rho", "1e41", "--same-oxygen-balance", "--db", str(dbfile))
        assert (code, err) == (0, "")
        db = rx.load_material_db(dbfile)
        mix = rx.MixtureSpec(((db.get("IDEAL", rx.Model.VO1), 0.999999), (db.get("STIFF", rx.Model.VO1), 0.000001)))
        sol = rx.mvo1_pressure(mix, 1e41, rx.mixture_flame_temperature(mix))
        assert sol.residual_rel <= 1e-12
        header, rows = csv_rows(out)
        assert header == ["Y", "rho_kg_m3", "tflame_K", "pmax_MPa", "c_m_s"] and len(rows) == 1
        assert float(rows[0][3]) == pytest.approx(sol.P / 1e6, rel=1e-9)

    def test_ng_mixture_runs_only_with_declaration(self, capsys):
        argv = ["mix-sweep", "NC-13=0.5,NG=0.5", "--model", "mna", "--rho", "200"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        code, out, _ = run_cli(capsys, *argv, "--same-oxygen-balance")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][0]) == 0.5


class TestState:
    def test_input_pairs_agree(self, capsys):
        code, out_a, _ = run_cli(capsys, "state", "NC-13", "--model", "na",
                                 "--rho", "100", "--T", "3275")
        assert code == 0
        header, rows_a = csv_rows(out_a)
        p_mpa = rows_a[0][0]
        code, out_b, _ = run_cli(capsys, "state", "NC-13", "--model", "na",
                                 "--P", p_mpa, "--T", "3275")
        assert code == 0
        _, rows_b = csv_rows(out_b)
        assert float(rows_b[0][2]) == pytest.approx(100.0, rel=1e-9)
        e_kj = rows_a[0][4]
        code, out_c, _ = run_cli(capsys, "state", "NC-13", "--model", "na",
                                 "--rho", "100", "--e", e_kj)
        assert code == 0
        _, rows_c = csv_rows(out_c)
        assert float(rows_c[0][1]) == pytest.approx(3275.0, rel=1e-9)

    def test_cvt_state_has_no_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "state", "NC-13", "--model", "vo1cvt",
                               "--rho", "100", "--T", "3275")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][6] == ""

    def test_bad_combination(self, capsys):
        code, _, err = run_cli(capsys, "state", "NC-13", "--model", "na", "--rho", "100")
        assert code == 2
        assert err.startswith("E_VALIDATION:")

    def test_domain_violation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "state", "NC-13", "--model", "na",
                               "--rho", "700", "--T", "3000")
        assert code == 4
        assert err.startswith("E_DOMAIN:")

    @pytest.mark.parametrize("argv", [
        ["state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000"],
        ["state", "NC-13", "--model", "na", "--rho", "700", "--T", "3000"],
    ], ids=["state", "domain-error"])
    def test_module_run_is_the_command(self, capsys, argv):
        # without a __main__ guard, `python -m redeos.cli` printed nothing and exited 0
        src = str(Path(rx.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "redeos.cli", *argv], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


class TestAudit:
    def test_virial_record_passes(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "NC-13", "--model", "vo1",
                               "--rho", "50:600:275", "--T", "1500:4500:1500")
        assert code == 0
        assert out.strip().endswith("RESULT PASS")

    def test_noble_abel_skips_singular_densities(self, capsys):
        # 1/b = 673.9 kg/m3: the 700 kg/m3 row is unphysical and skipped
        code, out, _ = run_cli(capsys, "audit", "NC-13", "--model", "na",
                               "--rho", "600:700:50", "--T", "2000:3000:1000")
        assert code == 0
        assert "skipped_rho=1" in out

    def test_cvt_record_passes(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "NC-13", "--model", "vo1cvt",
                               "--rho", "100:500:200", "--T", "2000:4000:1000")
        assert code == 0
        assert out.strip().endswith("RESULT PASS")

    def test_hand_edited_non_convex_record_fails(self, capsys, tmp_path):
        # a rho crosses -1 inside the grid: the audit must report it
        dbfile = tmp_path / "probe.eosdb"
        dbfile.write_text('[material "X" model VO1]\nR = 322\na = -0.02\nCv = 1640\n')
        code, out, _ = run_cli(capsys, "audit", "X", "--model", "vo1",
                               "--rho", "10:100:30", "--T", "2000:3000:500",
                               "--db", str(dbfile))
        assert code == 3
        assert "convexity violations" in out
        assert out.strip().endswith("RESULT FAIL")

    def test_criteria_of_other_sign_than_the_oracle_fail(self, capsys, monkeypatch):
        from redeos import numerics
        from test_numerics import _flipped_fd_convexity
        monkeypatch.setattr(numerics.FdPartials, "convexity", _flipped_fd_convexity)
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", "vo1",
                                 "--rho", "50:600:275", "--T", "1500:4500:1500")
        assert code == 3 and err == ""
        assert out.splitlines()[5:] == ["convexity sign mismatches = 9 FAIL", "convexity violations = 0 PASS",
                                        "RESULT FAIL"]


    @pytest.mark.parametrize("model", ["vo1", "vo1cvt"])
    def test_virial_record_at_large_a_rho_passes(self, capsys, model):
        # the oracle's criterion (d) lost its sign to cancellation from rho ~ 2e19 kg/m3 up:
        # `convexity sign mismatches = 1 FAIL` and RESULT FAIL (exit 3) on a convex record
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model,
                                 "--rho", "1e20:1e20:1", "--T", "3000:3000:1")
        assert (code, err) == (0, "")
        assert out.splitlines()[5:] == ["convexity sign mismatches = 0 PASS", "convexity violations = 0 PASS",
                                        "RESULT PASS"]

    def test_point_on_the_convexity_boundary_is_a_violation(self, capsys, tmp_path):
        # at a rho = -1/2 criterion (d) is exactly 0; the verdict once called the point convex,
        # and the audit refused it in E_DOMAIN as an underflow that did not happen
        dbfile = tmp_path / "neg.eosdb"
        dbfile.write_text('[material "PROBE" model VO1]\nR = 322\na = -0.005\nCv = 1640\n')
        code, out, err = run_cli(capsys, "audit", "PROBE", "--model", "vo1", "--db", str(dbfile),
                                 "--rho", "100:100:1", "--T", "3000:3000:1")
        assert (code, err) == (3, "")
        assert out.splitlines()[5:] == ["convexity sign mismatches = 0 PASS", "convexity violations = 1 FAIL",
                                        "RESULT FAIL"]


class TestNonConvexRecordGuard:
    def test_sweep_refuses_negative_virial(self, capsys, tmp_path):
        dbfile = tmp_path / "probe.eosdb"
        dbfile.write_text('[material "X" model VO1]\nR = 322\na = -0.02\nCv = 1640\n'
                          'e_s_eff_kJ = 5000\nT_flame = 3000\n')
        code, _, err = run_cli(capsys, "sweep", "X", "--model", "vo1",
                               "--rho", "100:200:100", "--db", str(dbfile))
        assert code == 2
        assert err.startswith("E_VALIDATION:")
        assert "audit" in err

    def test_mix_sweep_refuses_negative_virial(self, capsys, tmp_path):
        # the virial mixture's pressure solve refuses the component, and stdout stays empty
        dbfile = tmp_path / "probe.eosdb"
        dbfile.write_text('[material "X" model VO1]\nR = 322\na = -0.02\nCv = 1640\ne_s_eff_kJ = 5000\n'
                          '[material "Y" model VO1]\nR = 322\na = 0.002359\nCv = 1640\ne_s_eff_kJ = 5000\n')
        got = run_cli(capsys, "mix-sweep", "X=0.5,Y=0.5", "--model", "mvo1", "--rho", "100",
                      "--same-oxygen-balance", "--db", str(dbfile))
        assert got == (2, "", "E_VALIDATION: mixture pressure solve requires a > 0 for every component; "
                              "'X' has a = -0.02\n")


class TestErrorSurface:
    def test_parse_error_prefix_and_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("rho_kg_m3,pmax_MPa\nabc,130\n")
        code, _, err = run_cli(capsys, "calibrate", "na", "--points", str(bad),
                               "--tflame", "3275", "--gamma", "1.207")
        assert code == 2
        assert err.startswith("E_PARSE:")
        assert err.count("\n") == 1  # single-line machine-parsable error

    def test_degenerate_data_prefix(self, capsys, tmp_path):
        twice = tmp_path / "twice.csv"
        twice.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n100,130.3\n")
        code, _, err = run_cli(capsys, "calibrate", "na", "--points", str(twice),
                               "--tflame", "3275", "--gamma", "1.207")
        assert code == 2
        assert err.startswith("E_DEGENERATE:")

    def test_rank_deficiency_exit_code(self, capsys, tmp_path):
        runs = tmp_path / "flat.csv"
        runs.write_text("Y,tflame_K\n0.2,3000\n0.5,3000\n0.8,3000\n")
        code, _, err = run_cli(capsys, "calibrate-cvt", "--runs", str(runs),
                               "--inert", "argon", "--es-i", "4556")
        assert code == 3
        assert err.startswith("E_RANK_DEFICIENT:")

    @pytest.mark.parametrize("error", [
        rx.errors.BracketError("g(4.51731e+302) = -inf and g(4.51731e+304) = nan have the same sign"),
        rx.errors.ConvergenceError("no convergence within 100 iterations (bracket [1, 2])"),
    ], ids=["bracket", "convergence"])
    @pytest.mark.parametrize("target, argv, given", [
        ("mixture.mvo1_closure_from_rho_T",
         ("mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "200", "--same-oxygen-balance"),
         "--rho 200"),
        ("numerics.audit_record", ("audit", "NC-13", "--model", "vo1", "--rho", "100:100:1", "--T", "3000:3000:1"),
         "--rho 100:100:1 --T 3000:3000:1"),
    ], ids=["mix-sweep", "audit"])
    def test_solver_failures_name_the_given_flags(self, capsys, monkeypatch, error, target, argv, given):
        # a solver's message names its bracket, not the input; these once printed E_BRACKET or
        # E_CONVERGENCE with that message
        def fail(*args):
            raise error

        monkeypatch.setattr(f"redeos.{target}", fail)
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == f"E_NUMERICAL: floating-point evaluation failed at {given}\n"


#: The exit-code contract: each error class's stderr tag and exit code.
CONTRACT = {
    rx.errors.DomainError: ("E_DOMAIN", 4),
    rx.errors.ValidationError: ("E_VALIDATION", 2),
    rx.errors.DegenerateDataError: ("E_DEGENERATE", 2),
    rx.errors.ModelMismatchError: ("E_MODEL_MISMATCH", 2),
    rx.errors.ParseError: ("E_PARSE", 2),
    rx.errors.NumericalError: ("E_NUMERICAL", 3),
    rx.errors.BracketError: ("E_NUMERICAL", 3),
    rx.errors.ConvergenceError: ("E_NUMERICAL", 3),
    rx.errors.RankDeficiencyError: ("E_RANK_DEFICIENT", 3),
}


def test_every_error_class_carries_its_tag_and_exit_code():
    classes = [cls for _, cls in inspect.getmembers(rx.errors, inspect.isclass)
               if issubclass(cls, rx.errors.EosError) and cls is not rx.errors.EosError]
    assert {cls: (cls.tag, cls.exit_code) for cls in classes} == CONTRACT


@pytest.mark.parametrize("error, tag, code", [
    *((cls("the library's message"), tag, code) for cls, (tag, code) in CONTRACT.items()),
    (ZeroDivisionError("float division by zero"), "E_NUMERICAL", 3),
    (ValueError("math domain error"), "E_NUMERICAL", 3),
    (FileNotFoundError(2, "No such file or directory", "x.eosdb"), "E_PARSE", 2),
], ids=[*(cls.__name__ for cls in CONTRACT), "ZeroDivisionError", "ValueError", "FileNotFoundError"])
def test_main_reports_a_failure_by_its_class(capsys, monkeypatch, error, tag, code):
    def fail(*args):
        raise error

    monkeypatch.setattr("redeos.cli.state_from_rho_T", fail)
    message = ("floating-point evaluation failed at --rho 100.0 --T 3000.0" if tag == "E_NUMERICAL"
               else str(error))
    assert run_cli(capsys, "state", "NC-13", "--model", "na", "--rho", "100", "--T", "3000") == (
        code, "", f"{tag}: {message}\n")


@pytest.mark.parametrize("argv", [
    ["calibrate", "na", "--points", "POINTS", "--tflame", "3275", "--gamma", "1.207"],
    ["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "ES_I"],
    ["sweep", "NC-13", "--model", "na", "--rho", "100:700:100"],
    ["mix-sweep", "NC-13+RDX", "--model", "mvo1", "--rho", "100,200", "--fraction-sweep", "0:1:0.5",
     "--same-oxygen-balance"],
    ["audit", "NC-13", "--model", "vo1", "--rho", "50:600:275", "--T", "1500:4500:1500"],
    ["state", "NC-13", "--model", "vo1cvt", "--rho", "100", "--T", "3275"],
], ids=lambda argv: argv[0])
def test_commands_return_their_lines_and_main_writes_them(capsys, tmp_path, points_nc13, argv):
    runs = tmp_path / "runs.csv"
    given = {"POINTS": points_nc13, "RUNS": str(runs), "ES_I": f"{write_dilution_runs_csv(runs) / 1e3:.10g}"}
    argv = [given.get(arg, arg) for arg in argv]
    args = _build_parser().parse_args(argv)
    lines, code = args.func(args)
    assert capsys.readouterr().out == ""
    assert type(lines) is list and all(type(line) is str for line in lines) and type(code) is int
    assert run_cli(capsys, *argv) == (code, "\n".join(lines) + "\n", "")


def assert_one_error_line(err, prefix):
    assert err.startswith(prefix + ":"), err
    assert err.count("\n") == 1 and "Traceback" not in err


# runs argv lists through main() and reports (exit code, stderr) of each
_CHILD = """
import contextlib, io, json, sys
from redeos.cli import _parse_range, main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append((main(argv), err.getvalue()))
print(json.dumps(results))
"""


#: --rho lists of 100 and of 10,001 densities, 100 kg/m3 each.
_RHO_100, _RHO_10001 = ",".join(["100"] * 100), ",".join(["100"] * 10_001)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestBoundaryRegressions:
    """Inputs that used to hang, end in a traceback, or print inf/nan with exit 0."""

    def test_unbounded_ranges_are_refused(self):
        # in a child with a time and memory limit: unfixed, each of these loops while memory grows
        argvs = [["sweep", "NC-13", "--model", "vo1", "--rho", "100:inf:50"],
                 ["sweep", "NC-13", "--model", "vo1", "--rho", "nan:100:1"],
                 ["audit", "NC-13", "--model", "vo1", "--T", "1500:1e300:1"],
                 # each range holds 10^4 points; their 10^8 were about 50 minutes of evaluation
                 ["audit", "NC-13", "--model", "vo1", "--rho", "10:10009:1", "--T", "1000:10999:1"]]
        proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], capture_output=True,
                              text=True, timeout=60, preexec_fn=_limit_memory,
                              env={**os.environ, "PYTHONPATH": str(Path(rx.__file__).parents[1])})
        assert proc.returncode == 0, proc.stderr
        for code, err in json.loads(proc.stdout):
            assert code == 2
            assert_one_error_line(err, "E_VALIDATION")

    @pytest.mark.parametrize("argv, grid", [
        # 101 x 100 points, each range within the bound; the audit once ran them all
        (["audit", "NC-13", "--model", "vo1", "--rho", "10:1010:10", "--T", "1000:1990:10"],
         "audit grid rho=10:1010:10 T=1000:1990:10"),
        # 101 fraction sets x 100 densities, and one fixed set x 10,001 densities: once printed in full
        (["mix-sweep", "NC-13+RDX", "--model", "mna", "--fraction-sweep", "0:1:0.01", "--rho", _RHO_100,
          "--same-oxygen-balance"], f"mix-sweep grid NC-13+RDX --fraction-sweep 0:1:0.01 --rho {_RHO_100}"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", _RHO_10001, "--same-oxygen-balance"],
         f"mix-sweep grid NC-13=0.5,RDX=0.5 --rho {_RHO_10001}"),
    ], ids=["audit", "fraction-sweep", "fixed-fractions"])
    def test_grids_past_the_point_bound_are_refused(self, capsys, argv, grid):
        assert run_cli(capsys, *argv) == (2, "", f"E_VALIDATION: {grid} holds more than 10000 points\n")

    def test_mix_sweep_at_the_point_bound_runs(self, capsys):
        code, out, err = run_cli(capsys, "mix-sweep", "NC-13+RDX", "--model", "mna", "--fraction-sweep",
                                 "0:0.99:0.01", "--rho", _RHO_100, "--same-oxygen-balance")
        assert (code, err) == (0, "") and out.count("\n") == 1 + 100 * 100

    @pytest.mark.parametrize("argv, code, prefix", [
        (["mix-sweep", "NC-13=abc,RDX=0.5", "--model", "mna", "--rho", "100", "--same-oxygen-balance"],
         2, "E_VALIDATION"),
        (["sweep", "NC-13", "--model", "vo1", "--rho", "a:b:c"], 2, "E_VALIDATION"),
        (["state", "NC-13", "--model", "vo1", "--rho", "1e308", "--T", "3000"], 3, "E_NUMERICAL"),
        (["state", "NC-13", "--model", "na", "--rho", "0", "--T", "3000"], 4, "E_DOMAIN"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mna", "--rho", "0", "--same-oxygen-balance"],
         4, "E_DOMAIN"),
        (["state", "NC-13", "--model", "vo1", "--rho", "inf", "--T", "3000"], 2, "E_VALIDATION"),
        (["state", "NC-13", "--model", "vo1", "--P", "inf", "--T", "3000"], 2, "E_VALIDATION"),
        (["state", "NC-13", "--model", "na", "--rho", "100", "--T", "nan"], 2, "E_VALIDATION"),
        (["state", "NC-13", "--model", "vo1cvt", "--rho", "100", "--e", "-inf"], 2, "E_VALIDATION"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "inf", "--same-oxygen-balance"],
         2, "E_VALIDATION"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mna", "--rho", "100,nan", "--same-oxygen-balance"],
         2, "E_VALIDATION"),
    ])
    def test_error_maps_to_one_code_line(self, capsys, argv, code, prefix):
        got, _, err = run_cli(capsys, *argv)
        assert got == code
        assert_one_error_line(err, prefix)

    @pytest.mark.parametrize("argv, named", [
        (["state", "NC-13", "--model", "vo1", "--rho", "inf", "--T", "3000"], "--rho must be finite, got inf"),
        (["state", "NC-13", "--model", "na", "--P", "inf", "--T", "3000"], "--P must be finite, got inf"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100,inf", "--same-oxygen-balance"],
         "--rho must be finite, got inf"),
    ])
    def test_non_finite_input_is_named(self, capsys, argv, named):
        _, _, err = run_cli(capsys, *argv)
        assert named in err

    @pytest.mark.parametrize("argv, prefix", [
        (["state", "NC-13", "--model", "vo1", "--rho", "100", "--e", "-1e3"], "E_DOMAIN"),
        (["audit", "NC-13", "--model", "vo1", "--rho", "-10:600:50"], "E_DOMAIN"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mna", "--rho", "-1e2", "--same-oxygen-balance"],
         "E_DOMAIN"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "-1e3", "--db", "DB"],
         "E_VALIDATION"),
    ])
    def test_negative_exponent_and_range_are_values(self, capsys, tmp_path, argv, prefix):
        runs = tmp_path / "runs.csv"
        write_dilution_runs_csv(runs)
        argv = [{"RUNS": str(runs), "DB": str(tmp_path / "x.eosdb")}.get(arg, arg) for arg in argv]
        _, _, err = run_cli(capsys, *argv)
        assert_one_error_line(err, prefix)

    @pytest.mark.parametrize("argv, named", [
        (["audit", "NC-13", "--model", "na", "--rho", "-100:-10:45"], "density must be positive, got -100.0"),
        (["state", "NC-13", "--model", "na", "--rho", "-100", "--T", "3000"],
         "density must be positive, got -100.0"),
        (["state", "NC-13", "--model", "vo1", "--P", "-5", "--T", "3000"], "--P must be positive, got -5.0 MPa"),
        (["state", "NC-13", "--model", "na", "--rho", "100", "--e", "-1e3"],
         "--e must exceed the reference q = 0 kJ/kg, got -1000.0 kJ/kg"),
        (["state", "NC-13", "--model", "na", "--rho", "700", "--T", "3000"],
         "density 700.0 kg/m3 is not below the packing limit 1/b = 673.8544474393531 kg/m3"),
    ])
    def test_domain_error_names_the_input(self, capsys, argv, named):
        # a negative NA density once passed the audit as "skipped" and named
        # the internal specific volume in state; P and e were named in SI units
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert_one_error_line(err, "E_DOMAIN")
        assert named in err
        assert "-0.01" not in err and "-1000000" not in err and "specific volume" not in err

    def test_mna_packing_limit_names_the_density(self, capsys):
        # once named the mixture's specific volume and a mixed covolume with rounding noise; the table
        # prints after its last row, so the refused row leaves stdout empty
        code, out, err = run_cli(capsys, "mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mna",
                                 "--rho", "700", "--same-oxygen-balance")
        assert code == 4 and out == ""
        assert err == "E_DOMAIN: density 700.0 kg/m3 is not below the packing limit 1/b = 683.9945280437755 kg/m3\n"

    def test_negative_exponent_reads_as_the_plain_number(self, capsys, tmp_path):
        runs = tmp_path / "runs.csv"
        write_dilution_runs_csv(runs)
        outs = [run_cli(capsys, "calibrate-cvt", "--runs", str(runs), "--inert", "argon", "--es-i", value)
                for value in ("-1e3", "-1000")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("model", ["mna", "mvo1"])
    def test_mixture_zero_density_names_the_density(self, capsys, model):
        code, _, err = run_cli(capsys, "mix-sweep", "NC-13=0.5,RDX=0.5", "--model", model,
                               "--rho", "0", "--same-oxygen-balance")
        assert code == 4
        assert_one_error_line(err, "E_DOMAIN")
        assert "density" in err and "0.0" in err

    def test_tiny_cvt_temperature_names_no_probe_point(self, capsys):
        # the state path once differenced around T with a 1 K step floor and
        # reported the probe T - 1e-6 K instead of the input
        code, out, err = run_cli(capsys, "state", "NC-13", "--model", "vo1cvt", "--rho", "100", "--T", "1e-300")
        assert "-1e-06" not in err
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[1] == "1e-300"

    @pytest.mark.parametrize("argv", [
        ["state", "X", "--model", "vo1cvt", "--rho", "100", "--T", "1000"],
        ["audit", "X", "--model", "vo1cvt", "--rho", "100:200:100", "--T", "500:1500:1000"],
    ], ids=["state", "audit"])
    def test_non_positive_cv_is_a_domain_error(self, capsys, tmp_path, argv):
        # Cv(T) = 1000 - T: the state once failed as E_NUMERICAL and the audit as RESULT FAIL
        dbfile = tmp_path / "falling.eosdb"
        dbfile.write_text('[material "X" model VO1_CVT]\nR = 322\na = 0.002\nCv0 = 1000\nc = -1\n')
        code, out, err = run_cli(capsys, *argv, "--db", str(dbfile))
        assert code == 4 and out == ""
        assert_one_error_line(err, "E_DOMAIN")
        assert "specific heat Cv0 + c T" in err

    def test_non_finite_result_is_not_printed(self, capsys):
        code, out, err = run_cli(capsys, "mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1",
                                 "--rho", "1e300", "--same-oxygen-balance")
        assert code == 3
        assert_one_error_line(err, "E_NUMERICAL")
        assert "inf" not in out and "nan" not in out

    def test_value_near_the_float_maximum_reads_back_finite(self, capsys):
        # 10 digits once rounded it to 1.797693135e+308, which reads back as inf
        code, out, err = run_cli(capsys, "sweep", "NC-13", "--model", "na",
                                 "--rho", "1.7976931345e+308:1.7976931345e+308:1e-300")
        assert code == 4 and err == ""
        assert out.splitlines()[1] == "1.7976931345e+308,,,E_DOMAIN,"

    @pytest.mark.parametrize("argv, first_line", [
        (["sweep", "NC-13", "--model", "vo1", "--rho", "10:5000:1"],
         b"rho_kg_m3,tflame_K,pmax_MPa,extrapolated,c_m_s\n"),
        # closed before the child writes: its one buffered block fails only when flushed
        (["state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000"], None),
    ], ids=["sweep-head-1", "state-unread"])
    def test_closed_stdout_pipe_ends_quietly(self, argv, first_line):
        # a reader that stops early (`| head -1`) once ended as E_PARSE: [Errno 32] Broken pipe,
        # exit 2, and an unflushed block as "Exception ignored ... BrokenPipeError", exit 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(rx.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-m", "redeos.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("text, want", [
        ("-100:-50:25", [-100.0, -75.0, -50.0]),
        ("-100:-100:1", [-100.0]),
        ("-1:0.5:0.5", [-1.0, -0.5, 0.0, 0.5]),
        ("1e200:1e200:1", [1e200]),
        ("0:0.5:0.1", [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]),
    ])
    def test_range_counts_points_by_index(self, text, want):
        # a negative HI once shrank the end test and dropped HI; at 1e200
        # lo + k*step never advanced and one point read as more than 10000
        assert _parse_range(text) == want

    @pytest.mark.parametrize("argv, named", [
        (["audit", "NC-13", "--model", "vo1", "--rho", "100:100:1", "--T", "-100:-100:1"],
         "audit grid rho=100:100:1 T=-100:-100:1: density and temperature must be positive, got rho=100.0, T=-100.0"),
        (["audit", "NC-13", "--model", "na", "--rho", "5000:6000:500", "--T", "3000:3000:1"],
         "audit grid rho=5000:6000:500 T=3000:3000:1: no point to evaluate"),
    ])
    def test_audit_of_no_point_is_no_pass(self, capsys, argv, named):
        # both once printed points=0 and RESULT PASS with exit 0
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert_one_error_line(err, "E_DOMAIN")
        assert named in err

    @pytest.mark.parametrize("argv", [
        ["audit", "NC-13", "--model", "vo1", "--rho", "0.01:0.01:1", "--T", "1e303:1e303:1"],
        ["audit", "RDX", "--model", "na", "--rho", "0.041467826828875134:0.041467826828875134:1",
         "--T", "1.4416867988549154e+304:1.4416867988549154e+304:1"],
    ])
    def test_audit_with_non_finite_oracle_is_no_pass(self, capsys, argv):
        # the oracle's c^2 is inf here; a non-finite c^2 once printed a residual of 0 and RESULT PASS
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"E_NUMERICAL: floating-point evaluation failed at --rho {argv[5]} --T {argv[7]}\n"

    @pytest.mark.parametrize("model", ["na", "vo1", "vo1cvt"])
    def test_audit_where_the_pressure_overflows_names_the_grid(self, capsys, model):
        # once E_DOMAIN (exit 4) naming an internal probe, rho=100.0001, T=nan
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model,
                                 "--rho", "100:100:1", "--T", "1e304:1e304:1")
        assert code == 3 and out == ""
        assert err == "E_NUMERICAL: floating-point evaluation failed at --rho 100:100:1 --T 1e304:1e304:1\n"

    @pytest.mark.parametrize("model, T", [("na", "4.5173069e303"), ("vo1", "4.51727e303"), ("vo1cvt", "4.5173069e303")])
    def test_audit_where_an_oracle_inversion_overflows_names_the_grid(self, capsys, model, T):
        # once E_BRACKET naming the inversion's bracket, g(4.51731e+302) = -inf and g(4.51731e+304) = nan
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model, "--rho", "100:100:1", "--T", f"{T}:{T}:1")
        assert code == 3 and out == ""
        assert err == f"E_NUMERICAL: floating-point evaluation failed at --rho 100:100:1 --T {T}:{T}:1\n"

    @pytest.mark.parametrize("model", ["na", "vo1", "vo1cvt"])
    @pytest.mark.parametrize("rho, T, named", [
        ("1e-310", "3000", "density 1e-310 kg/m3 does not exceed its difference step 2.2250738585072014e-308 kg/m3"),
        ("100", "1e-310", "temperature 1e-310 K does not exceed its difference step 2.2250738585072014e-308 K"),
    ], ids=["rho", "T"])
    def test_audit_point_within_a_difference_step_names_the_grid_value(self, capsys, model, rho, T, named):
        # these once named a difference point, -9.999e-07 kg/m3 or -9e-07 K
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model,
                                 "--rho", f"{rho}:{rho}:1", "--T", f"{T}:{T}:1")
        assert code == 4 and out == ""
        assert err == f"E_DOMAIN: audit grid rho={rho}:{rho}:1 T={T}:{T}:1: {named}\n"

    @pytest.mark.parametrize("model", ["na", "vo1", "vo1cvt"])
    @pytest.mark.parametrize("rho, T, named", [
        ("1e-320:1e-320:1", "-5:3000:3005", "{positive}"),
        ("1e-310:1e-310:1", "1e-310:1e-310:1",
         "density 1e-310 kg/m3 does not exceed its difference step 2.2250738585072014e-308 kg/m3"),
        ("1e-320:1e-320:1", "1e-310:3000:3000",
         "density 1e-320 kg/m3 does not exceed its difference step 2.2250738585072014e-308 kg/m3"),
    ], ids=["law-first", "rho-before-T", "rho-at-first-T"])
    def test_audit_names_the_first_refusal_on_the_grid(self, capsys, model, rho, T, named):
        # at each point the law refuses first, then the density and the temperature steps
        positive = ("temperature must be positive, got -5.0" if model == "na" else
                    "density and temperature must be positive, got rho=1e-320, T=-5.0")
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model, "--rho", rho, "--T", T)
        assert code == 4 and out == ""
        assert err == f"E_DOMAIN: audit grid rho={rho} T={T}: {named.format(positive=positive)}\n"

    @pytest.mark.parametrize("model", ["na", "vo1", "vo1cvt"])
    def test_audit_where_the_criteria_underflow_is_a_domain_error(self, capsys, model):
        # once `convexity violations = 1 FAIL` and RESULT FAIL (exit 3) for a convex record
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model,
                                 "--rho", "1e-200:1e-200:1", "--T", "3000:3000:1")
        assert code == 4 and out == ""
        assert err == ("E_DOMAIN: audit grid rho=1e-200:1e-200:1 T=3000:3000:1: the closed-form convexity "
                       "criteria underflow to zero at rho=1e-200, T=3000.0\n")
        # the criteria are still positive floats here
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model,
                                 "--rho", "1e-160:1e-160:1", "--T", "3000:3000:1")
        assert code == 0 and err == "" and out.endswith("RESULT PASS\n")

    def test_audit_where_the_criteria_overflow_is_numerical(self, capsys):
        # once `convexity violations = 1 FAIL` and RESULT FAIL (exit 3) for a convex record, every
        # residual 0: criterion (d), P^2 / (R Cv(T) (1 + a rho)^2), is inf/inf here
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", "vo1cvt",
                                 "--rho", "1e-10:1e-10:1", "--T", "1.7e307:1.7e307:1")
        assert code == 3 and out == ""
        assert err == "E_NUMERICAL: floating-point evaluation failed at --rho 1e-10:1e-10:1 --T 1.7e307:1.7e307:1\n"

    @pytest.mark.parametrize("material, rho", [("NC-13", "5.623413251903491e152"), ("NG", "1e153")])
    def test_audit_where_a_criterion_overflows_to_zero_is_numerical(self, capsys, material, rho):
        # criterion (b)'s denominator rho R Cv (1 + a rho) overflows at a finite P; once an
        # `E_DOMAIN: ... criteria underflow to zero` with exit 4
        grid = f"{rho}:{rho}:1"
        code, out, err = run_cli(capsys, "audit", material, "--model", "vo1", "--rho", grid, "--T", "300:300:1")
        assert code == 3 and out == ""
        assert err == f"E_NUMERICAL: floating-point evaluation failed at --rho {grid} --T 300:300:1\n"

    def test_state_whose_entropy_underflows_is_numerical(self, capsys):
        code, out, err = run_cli(capsys, "state", "NC-13", "--model", "na", "--rho", "1e-300", "--T", "1e-25")
        assert code == 3 and out == ""
        assert err == "E_NUMERICAL: floating-point evaluation failed at --rho 1e-300 --T 1e-25\n"

    def test_state_whose_enthalpy_overflows_prints_nothing(self, capsys):
        # the state was returned with h = inf, so its header printed before the row failed
        code, out, err = run_cli(capsys, "state", "NC-13", "--model", "na", "--rho", "1e-3", "--T", "1e305")
        assert code == 3 and out == ""
        assert err == "E_NUMERICAL: floating-point evaluation failed at --rho 0.001 --T 1e+305\n"

    def test_state_above_6e305_pa_prints_its_entropy(self, capsys):
        # the entropy was nan here, so the header printed and the row ended in E_NUMERICAL
        code, out, err = run_cli(capsys, "state", "NC-13", "--model", "vo1", "--rho", "1", "--e", "1e305")
        assert code == 0 and err == ""
        assert float(out.splitlines()[1].split(",")[6]) == pytest.approx(1.14e6, rel=1e-2)

    @pytest.mark.parametrize("model", ["na", "vo1", "vo1cvt"])
    def test_sweep_row_at_a_subnormal_density_is_numerical(self, capsys, model):
        # 1/rho overflows here; a sound speed taken without the state's guards printed a subnormal
        # pressure with exit 0 (vo1) or an E_DOMAIN row (na, whose P underflows to 0); the refused row
        # leaves stdout empty, header included
        code, out, err = run_cli(capsys, "sweep", "NC-13", "--model", model, "--rho", "1e-320:1e-320:1")
        assert code == 3 and out == ""
        assert err == "E_NUMERICAL: floating-point evaluation failed at --rho 1e-320:1e-320:1\n"

    @pytest.mark.parametrize("model", ["na", "vo1", "vo1cvt"])
    @pytest.mark.parametrize("rho, T", [
        # once FAIL (exit 3): a density step floored at 1e-6 kg/m3 was a tenth of the density, and the
        # sound-speed residual read 1.06e-05
        ("1e-5", "400"), ("1e-5", "3000"),
        # passed before as well, with floored steps of 1e-3 rho and 2e-6 T
        ("1e-3", "0.5"),
        # once E_DOMAIN (exit 4): the pressure, 3.2e-3 to 6.4e-2 Pa, lay within a step floored at 0.1 Pa
        ("1e-5", "1"), ("1e-4", "2"),
    ])
    def test_audit_at_low_density_or_pressure_passes(self, capsys, model, rho, T):
        code, out, err = run_cli(capsys, "audit", "NC-13", "--model", model,
                                 "--rho", f"{rho}:{rho}:1", "--T", f"{T}:{T}:1")
        assert code == 0 and err == ""
        residuals = [float(line.split(" = ")[1].split()[0]) for line in out.splitlines()[2:5]]
        assert max(residuals) <= 1e-9
        assert out.endswith("RESULT PASS\n")

    @pytest.mark.parametrize("argv, code, prefix, named", [
        (["state", "NC-13", "--model", "vo1cvt", "--P", "100", "--T", "-5"], 4, "E_DOMAIN",
         "--T must be positive, got -5.0 K"),
        (["state", "NC-13", "--model", "vo1", "--rho", "1e300", "--T", "1e300"], 3, "E_NUMERICAL",
         "floating-point evaluation failed at --rho 1e+300 --T 1e+300"),
    ])
    def test_state_error_names_the_user_input(self, capsys, argv, code, prefix, named):
        # these once named P=100000000.0 (Pa) and the Python error (34, 'Numerical result out of range')
        got, out, err = run_cli(capsys, *argv)
        assert got == code and out == ""
        assert_one_error_line(err, prefix)
        assert named in err
        assert "100000000" not in err and "34" not in err

    @pytest.mark.parametrize("argv, inputs", [
        (["state", "NC-13", "--model", "vo1cvt", "--P", "1e300", "--T", "1e300"], "--P 1e+300 --T 1e+300"),
        (["state", "NC-13", "--model", "vo1", "--P", "1e300", "--T", "1e-300"], "--P 1e+300 --T 1e-300"),
        (["state", "NC-13", "--model", "vo1", "--rho", "1e-320", "--T", "3000"], "--rho 1e-320 --T 3000.0"),
        (["state", "NC-13", "--model", "na", "--rho", "1e-320", "--T", "3000"], "--rho 1e-320 --T 3000.0"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mna", "--rho", "1e-320", "--same-oxygen-balance"],
         "--rho 1e-320"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "1e300", "--same-oxygen-balance"],
         "--rho 1e300"),
        (["sweep", "NC-13", "--model", "vo1", "--rho", "1e200:1e200:1"], "--rho 1e200:1e200:1"),
        (["audit", "NC-13", "--model", "vo1", "--rho", "1e200:1e200:1", "--T", "3000:3000:1"],
         "--rho 1e200:1e200:1 --T 3000:3000:1"),
        (["state", "NC-13", "--model", "na", "--P", "1e300", "--T", "1e-300"], "--P 1e+300 --T 1e-300"),
        (["mix-sweep", "NC-13+RDX", "--model", "mvo1", "--rho", "100,2e302", "--fraction-sweep", "0:1:1",
          "--same-oxygen-balance"], "--rho 100,2e302 --fraction-sweep 0:1:1"),
        (["mix-sweep", "NC-13+RDX", "--model", "mvo1", "--rho", "100,1e308", "--fraction-sweep", "0:1:1",
          "--same-oxygen-balance"], "--rho 100,1e308 --fraction-sweep 0:1:1"),
    ])
    def test_numerical_failure_names_the_input(self, capsys, argv, inputs):
        # these once ended in E_VALIDATION or E_DOMAIN naming gamma = 1.0, v*rho = inf, rho=0.0,
        # P=0.0 or an NA volume rounded onto the covolume, or in E_NUMERICAL naming the Python
        # error or the non-finite result; an MVO1 density from about 2e302 in E_BRACKET naming g(inf)
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == f"E_NUMERICAL: floating-point evaluation failed at {inputs}\n"

    @pytest.mark.parametrize("argv", [
        ["state", "NC-13", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DIR"],
        ["calibrate", "na", "--points", "DIR", "--tflame", "3275", "--gamma", "1.2"],
        ["calibrate-cvt", "--runs", "DIR", "--inert", "argon", "--es-i", "5000"],
        ["sweep", "NC-13", "--model", "na", "--rho", "100:200:100", "--reference", "DIR"],
        ["state", "NC-13", "--model", "na", "--rho", "100", "--T", "3000", "--db", "UTF16"],
        ["calibrate-cvt", "--runs", "UTF16", "--inert", "argon", "--es-i", "5000"],
    ], ids=["db-dir", "points-dir", "runs-dir", "reference-dir", "db-utf16", "runs-utf16"])
    def test_unreadable_input_file_is_a_parse_error(self, capsys, tmp_path, argv):
        # a directory once ended in an IsADirectoryError traceback, and a file that is
        # not UTF-8 in E_NUMERICAL naming --rho and --T
        utf16 = tmp_path / "utf16.txt"
        utf16.write_bytes(b"\xff\xfe[\x00m\x00")
        argv = [{"DIR": str(tmp_path), "UTF16": str(utf16)}.get(arg, arg) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert_one_error_line(err, "E_PARSE")
        assert str(tmp_path) in err

    @pytest.mark.parametrize("exponent", [81, 100, 300])
    def test_cvt_fit_overflow_writes_one_line(self, capfd, tmp_path, exponent):
        # numpy's overflow warning, or LAPACK's DLASCL complaint written to fd 2, once came first
        runs = tmp_path / "runs.csv"
        runs.write_text(f"Y,tflame_K\n0.5,1e{exponent}\n0.7,2e{exponent}\n1.0,3e{exponent}\n")
        code = main(["calibrate-cvt", "--runs", str(runs), "--inert", "argon", "--es-i", "5000"])
        out, err = capfd.readouterr()
        assert code == 3 and out == ""
        assert_one_error_line(err, "E_RANK_DEFICIENT")
        assert f"the largest temperature {float(f'3e{exponent}')!r} K" in err

    def test_cvt_fit_of_huge_targets_writes_nothing_to_stderr(self, tmp_path):
        # T0 = 1e300 K makes the targets ~1e303 J/kg; the residual norm once overflowed
        # in numpy, which printed its RuntimeWarning and then E_NUMERICAL (exit 3)
        runs = tmp_path / "runs.csv"
        write_dilution_runs_csv(runs)
        argv = ["calibrate-cvt", "--runs", str(runs), "--inert", "argon", "--es-i", "4556.380981", "--t0", "1e300"]
        proc = subprocess.run([sys.executable, "-m", "redeos.cli", *argv], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(Path(rx.__file__).parents[1])})
        assert (proc.returncode, proc.stderr) == (0, "")
        values = [float(line.rsplit(" = ", 1)[1]) for line in proc.stdout.splitlines()[1:]]
        assert len(values) == 5 and all(abs(v) < float("inf") for v in values)

    @pytest.mark.parametrize("argv, prefix, named", [
        (["calibrate", "na", "--points", "POINTS", "--tflame", "3275", "--gamma", "1.2", "--db", "GARBAGE"],
         "E_PARSE", "line 1: expected 'key = value', got 'garbage'"),
        (["calibrate", "na", "--points", "POINTS", "--tflame", "3275", "--gamma", "1.2", "--db", "UNWRITABLE"],
         "E_PARSE", "No such file or directory"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "5000", "--db", "NEW"], "E_VALIDATION",
         "--db requires --name and --base"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "5000", "--db", "NEW",
          "--name", "N", "--base", "NOPE"], "E_VALIDATION", "material 'NOPE' with model VO1 is not in the database"),
        (["mix-sweep", "NC-13=0.7,RDX=0.5", "--model", "mna", "--rho", "100", "--same-oxygen-balance"],
         "E_VALIDATION", "mass fractions must sum to 1"),
        (["mix-sweep", "X+NC-13", "--model", "mna", "--rho", "100", "--fraction-sweep", "0:1:1",
          "--same-oxygen-balance", "--db", "NO_E"], "E_VALIDATION", "record 'X' carries no effective energy"),
        (["mix-sweep", "Z+NC-13", "--model", "mvo1", "--rho", "100", "--fraction-sweep", "0:1:1",
          "--same-oxygen-balance", "--db", "NO_E"], "E_VALIDATION", "'Z' has a = 0.0"),
        (["sweep", "X", "--model", "na", "--rho", "100:200:100", "--db", "NO_E"], "E_VALIDATION",
         "record 'X' carries no effective energy"),
        # refusals of the argument parsers
        (["mix-sweep", "NC-13=", "--model", "mna", "--rho", "100", "--same-oxygen-balance"], "E_VALIDATION",
         "malformed mixture component 'NC-13='; use NAME=FRACTION"),
        (["mix-sweep", "NC-13+RDX+HMX", "--model", "mna", "--rho", "100", "--fraction-sweep", "0:1:1",
          "--same-oxygen-balance"], "E_VALIDATION", "fraction sweeps need exactly two materials as A+B"),
        (["mix-sweep", "NC-13+RDX", "--model", "mna", "--rho", "100", "--fraction-sweep", "0:2:1",
          "--same-oxygen-balance"], "E_VALIDATION", "swept fraction 2.0 is outside [0,1]"),
        (["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100,fast", "--same-oxygen-balance"],
         "E_VALIDATION", "expected a comma-separated list of numbers, got '100,fast'"),
        # a float flag that is not finite, named as given rather than by a record field it fills
        (["calibrate", "na", "--points", "POINTS", "--tflame", "inf", "--gamma", "1.2"], "E_VALIDATION",
         "--tflame must be finite, got inf"),
        (["calibrate", "vo1", "--points", "POINTS", "--tflame", "3275", "--gamma", "inf"], "E_VALIDATION",
         "--gamma must be finite, got inf"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "5000", "--db", "NEW",
          "--name", "N", "--base", "NC-13", "--tflame", "inf"], "E_VALIDATION", "--tflame must be finite, got inf"),
        # named as typed: the effective energy derived from it was once named instead
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "5000", "--db", "NEW",
          "--name", "N", "--base", "NC-13", "--tflame", "-5"], "E_VALIDATION", "T_flame must be positive and finite, got -5.0"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "inf"], "E_VALIDATION",
         "--es-i must be finite, got inf"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "5000", "--t0", "nan"], "E_VALIDATION",
         "--t0 must be finite, got nan"),
        # two-point calibrations that fail on the data or the flame temperature
        (["calibrate", "na", "--points", "B_NEGATIVE", "--tflame", "3275", "--gamma", "1.2"], "E_VALIDATION",
         "calibrated covolume is negative"),
        (["calibrate", "na", "--points", "B_PACKED", "--tflame", "3275", "--gamma", "1.2"], "E_VALIDATION",
         "reaches the smaller specific volume"),
        (["calibrate", "na", "--points", "POINTS", "--tflame", "1e-320", "--gamma", "1.2"], "E_VALIDATION",
         "calibrated gas constant inf J/(kg K) is not positive and finite at flame temperature 1e-320 K"),
        (["calibrate", "vo1", "--points", "SINGULAR", "--tflame", "3275", "--gamma", "1.2"], "E_DEGENERATE",
         "the virial system is singular"),
        (["calibrate", "vo1", "--points", "POINTS", "--tflame", "1e305", "--gamma", "1.2"], "E_VALIDATION",
         "calibrated gas constant 0.0 J/(kg K) is not positive and finite at flame temperature 1e+305 K"),
        (["calibrate", "na", "--points", "POINTS", "--tflame", "-5", "--gamma", "1.2"], "E_VALIDATION",
         "flame temperature must be positive, got -5.0"),
        (["calibrate", "vo1", "--points", "POINTS", "--tflame", "3275", "--gamma", "0.9"], "E_VALIDATION",
         "heat-capacity ratio must exceed 1, got 0.9"),
        (["calibrate-cvt", "--runs", "RUNS_NEG", "--inert", "argon", "--es-i", "5000"], "E_VALIDATION",
         "line 3: flame temperature must be positive, got -5.0"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "5000", "--db", "NEW",
          "--name", "N", "--base", "Y", "--base-db", "NO_FLAME"], "E_VALIDATION",
         "no flame temperature available; pass --tflame"),
        # file values, named by line and by key or column in file units
        (["state", "X", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DB_RANGE"], "E_PARSE",
         "line 5: rho_range needs two values, got '100'"),
        (["state", "X", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DB_OUTSIDE"], "E_PARSE",
         "line 1: key outside any [material ...] section"),
        (["state", "X", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DB_TWICE"], "E_PARSE",
         "line 5: duplicate key 'R'"),
        (["state", "X", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DB_WORD"], "E_PARSE",
         "line 3: value of 'b' is not a number: 'small'"),
        (["state", "X", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DB_INF"], "E_VALIDATION",
         "line 2: value of 'R' is not finite in SI units: 'inf'"),
        (["state", "X", "--model", "na", "--rho", "100", "--T", "3000", "--db", "DB_OVERFLOW"], "E_VALIDATION",
         "line 5: value of 'e_s_eff_kJ' is not finite in SI units: '1e306'"),
        (["calibrate", "na", "--points", "P_FIELDS", "--tflame", "3275", "--gamma", "1.2"], "E_PARSE",
         "line 3: expected 2 fields, got 3"),
        (["calibrate", "na", "--points", "P_OVERFLOW", "--tflame", "3275", "--gamma", "1.2"], "E_VALIDATION",
         "line 2: value of 'pmax_MPa' is not finite in SI units: '1e308'"),
        (["calibrate", "na", "--points", "P_NAN", "--tflame", "3275", "--gamma", "1.2"], "E_VALIDATION",
         "line 2: value of 'rho_kg_m3' is not finite in SI units: 'nan'"),
        (["calibrate-cvt", "--runs", "RUNS_INF", "--inert", "argon", "--es-i", "5000"], "E_VALIDATION",
         "line 2: value of 'tflame_K' is not finite in SI units: 'inf'"),
        (["calibrate", "na", "--points", "RHO_SUBNORMAL", "--tflame", "3000", "--gamma", "1.2"], "E_VALIDATION",
         "line 2: loading density 1e-320 kg/m3 has no finite specific volume"),
        (["calibrate", "vo1", "--points", "RHO_SUBNORMAL", "--tflame", "3000", "--gamma", "1.2"], "E_VALIDATION",
         "line 2: loading density 1e-320 kg/m3 has no finite specific volume"),
        # a flag finite as typed whose value overflows in SI units
        (["state", "NC-13", "--model", "na", "--P", "1e303", "--T", "3000"], "E_VALIDATION",
         "--P must be finite in SI units, got 1e+303"),
        (["state", "NC-13", "--model", "vo1cvt", "--rho", "1", "--e", "1.7e308"], "E_VALIDATION",
         "--e must be finite in SI units, got 1.7e+308"),
        (["calibrate-cvt", "--runs", "RUNS", "--inert", "argon", "--es-i", "1e306"], "E_VALIDATION",
         "--es-i must be finite in SI units, got 1e+306"),
    ], ids=["calibrate-db", "calibrate-unwritable", "cvt-no-name", "cvt-no-base", "mix-fractions", "mix-no-energy", "mvo1-zero-a",
            "sweep-no-energy", "mix-empty-fraction", "mix-three-names", "mix-fraction-above-1", "mix-rho-word",
            "tflame-inf", "gamma-inf", "cvt-tflame-inf", "cvt-tflame-negative", "es-i-inf", "t0-nan", "na-negative-b", "na-packed-b",
            "na-r-overflows", "vo1-singular", "vo1-r-underflows", "na-tflame-negative", "vo1-gamma-below-1",
            "runs-tflame-negative", "cvt-base-no-flame", "db-range-one-value", "db-key-outside",
            "db-duplicate-key", "db-word", "db-inf", "db-overflow", "csv-fields", "csv-overflow", "csv-nan",
            "runs-inf", "na-rho-subnormal", "vo1-rho-subnormal", "p-overflows-in-si", "e-overflows-in-si",
            "es-i-overflows-in-si"])
    def test_exit_2_prints_nothing(self, capsys, tmp_path, points_nc13, argv, prefix, named):
        # the first eight once printed their result or header before the error; the non-finite
        # flags and file values once named the record field they fill (R, Cv, e_s_eff, P_max) or
        # ended in E_NUMERICAL, a short rho_range named its section's header line, and a subnormal
        # loading density, whose 1/rho overflows, was blamed on the calibrated covolume or virial coefficient;
        # a flag that overflows in SI units ended in E_NUMERICAL or, for --e, in E_DOMAIN naming T=nan
        runs = tmp_path / "runs.csv"
        write_dilution_runs_csv(runs)
        names = {"POINTS": points_nc13, "UNWRITABLE": str(tmp_path / "no" / "x.eosdb"), "RUNS": str(runs),
                 "NEW": str(tmp_path / "new.eosdb")}
        for name, text in _EXIT_2_FILES.items():
            names[name] = str(tmp_path / name)
            (tmp_path / name).write_text(text)
        code, out, err = run_cli(capsys, *[names.get(arg, arg) for arg in argv])
        assert code == 2 and out == ""
        assert_one_error_line(err, prefix)
        assert named in err


_NA_X = '[material "X" model NA]\nR = 338.9\nb = 0.001484\nCv = 1637.1\n'

#: The input files of ``test_exit_2_prints_nothing``, by the name its argv gives them.
_EXIT_2_FILES = {
    "GARBAGE": "garbage\n",
    # X carries no effective energy and Z has a = 0, which the MVO1 solve refuses
    "NO_E": ('[material "X" model NA]\nR = 338.9\nb = 0.001484\nCv = 1637.1\n\n'
             '[material "Z" model VO1]\nR = 322\na = 0\nCv = 1640.5\ne_s_eff_kJ = 5371.9\n\n'
             '[material "NC-13" model VO1]\nR = 322\na = 0.002359\nCv = 1640.5\ne_s_eff_kJ = 5371.9\n\n'
             '[material "NC-13" model NA]\nR = 338.9\nb = 0.001484\nCv = 1637.1\ne_s_eff_kJ = 5360.7\n'),
    "B_NEGATIVE": "rho_kg_m3,pmax_MPa\n100,130\n150,150\n",   # P1 v1 > P2 v2 while P2 > P1
    "B_PACKED": "rho_kg_m3,pmax_MPa\n100,214.1\n150,130.3\n",  # the pressure falls as the density rises
    "SINGULAR": "rho_kg_m3,pmax_MPa\n100,100\n200,400\n",      # P1 rho2^2 = P2 rho1^2
    "DB_RANGE": _NA_X + "rho_range = 100\n",
    "DB_OUTSIDE": "R = 338.9\n" + _NA_X,
    "DB_TWICE": _NA_X + "R = 338.9\n",
    "DB_WORD": _NA_X.replace("0.001484", "small"),
    "DB_INF": _NA_X.replace("338.9", "inf"),
    "DB_OVERFLOW": _NA_X + "e_s_eff_kJ = 1e306\n",
    "P_FIELDS": "rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1,9\n",
    "P_OVERFLOW": "rho_kg_m3,pmax_MPa\n100,1e308\n150,214.1\n",
    "P_NAN": "rho_kg_m3,pmax_MPa\nnan,120\n150,214.1\n",
    "RUNS_INF": "Y,tflame_K\n0.5,inf\n0.7,2900\n1.0,3275\n",
    "RUNS_NEG": "Y,tflame_K\n0.5,2500\n0.7,-5\n1.0,3275\n",
    "NO_FLAME": '[material "Y" model VO1]\nR = 322\na = 0.002359\nCv = 1640.5\n',  # no T_flame
    "RHO_SUBNORMAL": "rho_kg_m3,pmax_MPa\n1e-320,130.3\n150,214.1\n",  # 1/rho overflows
}
