import pytest
from hypothesis import example, given, settings, strategies as st

import redeos as rx
from redeos.errors import ParseError, ValidationError

_NOTE_RULE = "a saved note is one unpadded line"


class TestClosedBombCsv:
    def test_two_points(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
        points = rx.load_closed_bomb_csv(path)
        assert len(points) == 2
        assert points[0].rho_load == 100.0
        assert points[0].P_max == pytest.approx(130.3e6)
        assert points[1].P_max == pytest.approx(214.1e6)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no data rows"):
            rx.load_closed_bomb_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("rho_kg_m3,pmax_MPa\n")
        with pytest.raises(ParseError, match="no data rows"):
            rx.load_closed_bomb_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("density,pressure\n100,130.3\n")
        with pytest.raises(ParseError, match="header"):
            rx.load_closed_bomb_csv(path)

    def test_negative_value_reports_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("rho_kg_m3,pmax_MPa\n100,-5\n")
        with pytest.raises(ValidationError, match="line 2"):
            rx.load_closed_bomb_csv(path)

    @pytest.mark.parametrize("rho", ["0", "-100"])
    def test_non_positive_density_reports_line(self, tmp_path, rho):
        path = tmp_path / "rho.csv"
        path.write_text(f"rho_kg_m3,pmax_MPa\n100,130.3\n{rho},214.1\n")
        with pytest.raises(ValidationError, match=f"line 3: loading density must be positive, got {float(rho)!r}"):
            rx.load_closed_bomb_csv(path)

    def test_non_numeric_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,fast\n")
        with pytest.raises(ParseError, match="line 3, column 2"):
            rx.load_closed_bomb_csv(path)


class TestInertRunsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("Y,tflame_K\n0.5,2500\n0.75,2900\n1.0,3275\n")
        runs = rx.load_inert_runs_csv(path)
        assert [r.Y for r in runs] == [0.5, 0.75, 1.0]
        assert runs[2].T_flame == 3275.0

    def test_fraction_bounds(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("Y,tflame_K\n1.5,2500\n")
        with pytest.raises(ValidationError, match="line 2"):
            rx.load_inert_runs_csv(path)


class TestMaterialDatabase:
    def test_builtin_contents(self, db):
        assert len(db) == 9
        # every material in both constant-Cv models, plus the Cv(T) record of NC-13
        want = {(name, model) for name in ("HMX", "NC-13", "NG", "RDX") for model in (rx.Model.NA, rx.Model.VO1)}
        assert set(db.records) == want | {("NC-13", rx.Model.VO1_CVT)}

    def test_missing_record(self, db):
        with pytest.raises(ValidationError, match="not in the database"):
            db.get("TNT", rx.Model.NA)

    def test_save_load_round_trip(self, db, tmp_path):
        path = tmp_path / "copy.eosdb"
        rx.save_material_db(path, db)
        again = rx.load_material_db(path)
        assert set(again.records) == set(db.records)
        for key, record in db.records.items():
            assert again.records[key].params == record.params
            assert again.records[key].note == record.note
        # a second cycle must be byte-stable
        path2 = tmp_path / "copy2.eosdb"
        rx.save_material_db(path2, again)
        assert path.read_text() == path2.read_text()

    @pytest.mark.parametrize("name, note, message", [
        ('a"b', "", "record 'a\"b' (NA): a saved name is a one-line string without '\"'"),
        ("a\nb", "", "record 'a\\nb' (NA): a saved name is a one-line string without '\"'"),
        ("a\u2028b", "", "record 'a\\u2028b' (NA): a saved name is a one-line string without '\"'"),
        ("", "", "record '' (NA): a saved name is a one-line string without '\"'"),
        (5, "", "record 5 (NA): a saved name is a one-line string without '\"'"),
        ("ab", "one\rtwo", f"record 'ab' (NA): {_NOTE_RULE}, got 'one\\rtwo'"),
        ("ab", "one\n", f"record 'ab' (NA): {_NOTE_RULE}, got 'one\\n'"),
        ("ab", 5, f"record 'ab' (NA): {_NOTE_RULE}, got 5"),
        ("ab", "  padded  ", f"record 'ab' (NA): {_NOTE_RULE}, got '  padded  '"),
        ("ab", "padded\t", f"record 'ab' (NA): {_NOTE_RULE}, got 'padded\\t'"),
        ("ab", "  ", f"record 'ab' (NA): {_NOTE_RULE}, got '  '"),
    ], ids=["quote", "newline", "line-separator", "empty", "number", "note-return", "note-trailing-newline",
            "number-note", "note-padded", "note-trailing-tab", "note-blank"])
    def test_save_refuses_what_load_cannot_read_back(self, tmp_path, name, note, message):
        # each would write a header or note line that the parser refuses or reads back otherwise
        db = rx.MaterialDatabase.empty()
        db.add(rx.GasParams.noble_abel(name, R=300.0, b=0.001, Cv=1500.0), note)
        path = tmp_path / "x.eosdb"
        path.write_text("# kept\n")
        with pytest.raises(ValidationError) as raised:
            rx.save_material_db(path, db)
        assert str(raised.value) == message
        assert path.read_text() == "# kept\n"

    @pytest.mark.parametrize("note, read_back", [("x = y \"z\" # w", "x = y \"z\" # w"), ("", ""), (None, "")])
    def test_save_keeps_a_one_line_name_and_note(self, tmp_path, note, read_back):
        db = rx.MaterialDatabase.empty()
        params = rx.GasParams.noble_abel(" a]b = c # d ", R=300.0, b=0.001, Cv=1500.0)
        db.add(params, note)
        path = tmp_path / "x.eosdb"
        rx.save_material_db(path, db)
        assert rx.load_material_db(path).records == {(params.name, rx.Model.NA): (params, read_back)}

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "odd.eosdb"
        path.write_text('[material "X" model NA]\nR = 300\nb = 0.001\nCv = 1500\nzeta = 4\n')
        with pytest.raises(ParseError, match="zeta"):
            rx.load_material_db(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "odd.eosdb"
        path.write_text('[material "X" model NA]\nR = 300\nCv = 1500\n')
        with pytest.raises(ParseError, match="'b'"):
            rx.load_material_db(path)

    def test_duplicate_record(self, tmp_path):
        block = '[material "X" model NA]\nR = 300\nb = 0.001\nCv = 1500\n'
        path = tmp_path / "dup.eosdb"
        path.write_text(block + block)
        with pytest.raises(ParseError, match="duplicate"):
            rx.load_material_db(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "odd.eosdb"
        path.write_text("[material X model NA]\nR = 300\n")
        with pytest.raises(ParseError, match="header"):
            rx.load_material_db(path)

    def test_unknown_model(self, tmp_path):
        path = tmp_path / "odd.eosdb"
        path.write_text('[material "X" model BKW]\nR = 300\n')
        with pytest.raises(ParseError, match="BKW"):
            rx.load_material_db(path)

    def test_negative_virial_loads_for_auditing(self, tmp_path):
        # probing records are representable; prediction commands refuse them
        path = tmp_path / "neg.eosdb"
        path.write_text('[material "X" model VO1]\nR = 300\na = -0.002\nCv = 1500\n')
        assert rx.load_material_db(path).get("X", rx.Model.VO1).a == -0.002

    def test_record_invariants_enforced_on_load(self, tmp_path):
        path = tmp_path / "bad.eosdb"
        path.write_text('[material "X" model NA]\nR = -300\nb = 0.001\nCv = 1500\n')
        with pytest.raises(ValidationError):
            rx.load_material_db(path)


class TestInertTable:
    def test_argon_matches_published_values(self):
        argon = rx.INERT_GASES["argon"]
        assert argon.Cv_in == 312.2
        assert argon.W_in == 39.95

    def test_xenon_monatomic_relation(self):
        xenon = rx.INERT_GASES["xenon"]
        assert xenon.Cv_in == pytest.approx(1.5 * rx.R_UNIVERSAL / (xenon.W_in * 1e-3), rel=1e-12)


@pytest.mark.parametrize("load, header", [
    (rx.load_closed_bomb_csv, "rho_kg_m3,pmax_MPa"),
    (rx.load_inert_runs_csv, "Y,tflame_K"),
], ids=["closed-bomb", "inert-runs"])
def test_a_wrong_header_is_refused_naming_its_line(tmp_path, load, header):
    path = tmp_path / "wrong.csv"
    path.write_text("# measured\nrho,P\n100,130\n")
    with pytest.raises(ParseError) as raised:
        load(path)
    assert (type(raised.value), str(raised.value)) == (ParseError, f"line 2: expected header {header!r}, got 'rho,P'")


@pytest.mark.parametrize("load, text", [
    (rx.load_material_db, '# kept\n[material "X" model NA]\nR = 300\nb = 0.001\nCv = 1500\nq_kJ = -1.5\n'),
    (rx.load_closed_bomb_csv, "rho_kg_m3,pmax_MPa\n100,130.3\n"),
    (rx.load_inert_runs_csv, "Y,tflame_K\n0.5,2500\n"),
], ids=["database", "closed-bomb", "inert-runs"])
def test_a_leading_byte_order_mark_is_accepted(tmp_path, load, text):
    # a byte-order mark, as Windows editors write one, once made line 1 a malformed header
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) == load(plain)


def test_a_byte_order_mark_does_not_shift_a_decoding_errors_byte(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xef\xbb\xbfY,\xff")
    with pytest.raises(ParseError) as raised:
        rx.load_inert_runs_csv(path)
    assert str(raised.value) == f"{path}: not UTF-8 text (invalid start byte at byte 5)"


#: The constants of one record of each model; the drawn energies fill q and e_s_eff.
_MODEL_CONSTANTS = {rx.Model.NA: {"Cv": 1500.0, "b": 0.001}, rx.Model.VO1: {"Cv": 1500.0, "a": 0.002},
                    rx.Model.VO1_CVT: {"a": 0.002, "Cv0": 1400.0, "c": 0.06}}
_ENERGIES = st.one_of(st.floats(-1e7, 1e7), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200)
@given(model=st.sampled_from(list(_MODEL_CONSTANTS)), q=_ENERGIES,
       e_s_eff=st.one_of(st.none(), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
# the writer's q / 1e3 once read back, times 1e3, as ...344
@example(model=rx.Model.VO1, q=65196.93679173343, e_s_eff=None)
@example(model=rx.Model.VO1_CVT, q=0.0, e_s_eff=4981631.1540966015)
def test_drawn_energies_survive_save_and_load(tmp_path_factory, model, q, e_s_eff):
    params = rx.GasParams(name="D", model=model, R=300.0, q=q, e_s_eff=e_s_eff, **_MODEL_CONSTANTS[model])
    db = rx.MaterialDatabase.empty()
    db.add(params, "drawn")
    path = tmp_path_factory.getbasetemp() / "drawn.eosdb"
    rx.save_material_db(path, db)
    assert rx.load_material_db(path) == db
