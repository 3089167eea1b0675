import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qplane import cli, fileio
from qplane import qalgebra as qa
from qplane.errors import InputFormatError
from qplane.holo import HoloSeries
from qplane.opcalc import QFunctionRep
from qplane.qalgebra import QSeries
from qplane.qtopology import QHull

from generate_inputs import log_xy_function
from oracles import naive_hull_contains

Q = 0.5


def write_series(path, series):
    with open(path, "w", encoding="utf-8") as fp:
        fileio.dump_json(fileio.qseries_to_payload(series), fp)


def write_function(path, rep):
    with open(path, "w", encoding="utf-8") as fp:
        fileio.dump_json(fileio.qfunction_to_payload(rep), fp)


def read_series(path):
    with open(path, "r", encoding="utf-8") as fp:
        return fileio.qseries_from_payload(fileio.load_json(fp))


def run(args):
    return cli.main([str(a) for a in args])


class TestRoundTrip:
    def test_qseries_values_bit_exact(self, tmp_path, rng):
        table = np.zeros((5, 5), dtype=complex)
        table[1, 3] = 0.1 + math.pi * 1j
        table[4, 0] = -1.0 / 3.0
        f = QSeries(0.5 + 0.25j, table)
        p = tmp_path / "f.json"
        write_series(p, f)
        assert read_series(p) == f

    def test_qfunction_round_trip(self, tmp_path):
        rep = QFunctionRep(
            Q, (HoloSeries([0.1, -2.0 / 7.0]), HoloSeries([0.0, 1e-17])), 1.25, 2.0
        )
        p = tmp_path / "f.json"
        write_function(p, rep)
        with open(p, "r", encoding="utf-8") as fp:
            back = fileio.qfunction_from_payload(fileio.load_json(fp))
        assert back.q == rep.q and back.r_x == rep.r_x and back.r_y == rep.r_y
        for a, b in zip(back.f_list, rep.f_list):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_terms_beyond_truncation_rejected(self, tmp_path):
        payload = {
            "q": [0.5, 0.0],
            "trunc": 2,
            "terms": [{"i": 3, "k": 0, "re": 1.0, "im": 0.0}],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        assert run(["mul", p, p]) == cli.EXIT_INPUT

    def test_malformed_json_is_input_error(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        assert run(["norm", p]) == cli.EXIT_INPUT

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["norm", tmp_path / "nope.json"]) == cli.EXIT_INPUT


def _series(terms, **fields):
    return {"q": [0.5, 0.0], "trunc": 2, "terms": terms, **fields}


def _term(i=1, k=0, re=1.0, im=0.0):
    return {"i": i, "k": k, "re": re, "im": im}


GOOD = _term()


class TestSeriesPayloadErrors:
    """Every series-payload error, by its exact message."""

    @pytest.mark.parametrize("payload, message", [
        ([], "series payload must be an object"),
        ({"trunc": 2, "terms": []}, "series payload missing field 'q'"),
        ({"q": [0.5, 0], "terms": []}, "series payload missing field 'trunc'"),
        ({"q": [0.5, 0], "trunc": 2}, "series payload missing field 'terms'"),
        (_series([], q=0.5), "q must be a [re, im] pair, got 0.5"),
        (_series([], q=[0.5]), "q must be a [re, im] pair, got [0.5]"),
        (_series([], q=["a", 0]), "q must be a number, got 'a'"),
        (_series([], q=[0.5, math.inf]), "q must be finite, got inf"),
        (_series([], q=[0, 0.0]), "q must be nonzero"),
        (_series([], lossy="yes"), "lossy must be true or false, got 'yes'"),
        (_series([], lossy=0), "lossy must be true or false, got 0"),
        (_series([], trunc=-1), "trunc must be a nonnegative integer, got -1"),
        (_series([], trunc=2.0), "trunc must be a nonnegative integer, got 2.0"),
        (_series({}), "terms must be a list"),
        (_series([GOOD, 3]), "term must be an object, got 3"),
        (_series([{"i": 0, "k": 0, "re": 1.0}]), "term missing field 'im'"),
        (_series([{"k": 0}]), "term missing field 'i'"),
        (_series([GOOD, _term(i=-1)]),
         "term degrees must be nonnegative integers, got (-1, 0)"),
        (_series([_term(k=1.0)]), "term degrees must be nonnegative integers, got (1, 1.0)"),
        (_series([_term(i="1")]), "term degrees must be nonnegative integers, got ('1', 0)"),
        (_series([_term(i=3)]), "term (3, 0) exceeds truncation degree 2"),
        (_series([_term(k=3)], trunc=2), "term (1, 3) exceeds truncation degree 2"),
        (_series([_term(re="x")]), "term re must be a number, got 'x'"),
        (_series([_term(re=None)]), "term re must be a number, got None"),
        (_series([_term(re=math.nan)]), "term re must be finite, got nan"),
        (_series([_term(im=[1.0])]), "term im must be a number, got [1.0]"),
        (_series([_term(im=-math.inf)]), "term im must be finite, got -inf"),
        # the first failing check wins, within a payload and within a term
        (_series({}, trunc=-1, lossy=1), "lossy must be true or false, got 1"),
        (_series({}, trunc=-1), "trunc must be a nonnegative integer, got -1"),
        (_series([_term(i=-1, re="x"), 3]),
         "term degrees must be nonnegative integers, got (-1, 0)"),
        (_series([_term(i=5, re=math.nan)]), "term (5, 0) exceeds truncation degree 2"),
        (_series([_term(re=math.nan, im="y")]), "term re must be finite, got nan"),
        (_series([_term(re="x", im="y")]), "term re must be a number, got 'x'"),
        (_series([_term(im=math.nan), _term(i=9)]), "term im must be finite, got nan"),
    ])
    def test_message(self, payload, message):
        with pytest.raises(InputFormatError) as info:
            fileio.qseries_from_payload(payload)
        assert str(info.value) == message

    @pytest.mark.parametrize("payload, message", [
        (_series([_term(i=True, k=False)]),
         "term degrees must be nonnegative integers, got (True, False)"),
        (_series([GOOD, _term(k=True)]),
         "term degrees must be nonnegative integers, got (1, True)"),
        (_series([], trunc=True), "trunc must be a nonnegative integer, got True"),
        (_series([], trunc=False), "trunc must be a nonnegative integer, got False"),
    ])
    def test_boolean_degrees_rejected(self, payload, message):
        with pytest.raises(InputFormatError) as info:
            fileio.qseries_from_payload(payload)
        assert str(info.value) == message

    def test_boolean_degrees_exit_2_from_the_cli(self, tmp_path, capsys):
        # a bool indexed the table as a mask, and the term vanished
        src = tmp_path / "f.json"
        src.write_text(json.dumps(_series([_term(i=True, k=False, re=2.0)])))
        assert run(["twist", src]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: input: term degrees must be nonnegative integers, got (True, False)"
        ]

    def test_accepted_values_sum_in_order(self):
        terms = [_term(1, 0, 0.1, -0.0), _term(1, 0, 0.2, 3), _term(0, 2, -0.0, 0.0),
                 _term(2, 2, 1, 2.5)]
        f = fileio.qseries_from_payload(_series(terms))
        want = np.zeros((3, 3), dtype=np.complex128)
        for t in terms:
            want[t["i"], t["k"]] += complex(t["re"], t["im"])
        assert f.coeffs.tobytes() == want.tobytes()


HUGE = 10**400  # a JSON integer beyond the double range
TOO_LARGE = "must be finite, got an integer too large for a double"


class TestHugeIntegers:
    """An integer that overflows a double is an input error, not a crash."""

    @pytest.mark.parametrize("reader, payload, what", [
        (fileio.qseries_from_payload, _series([_term(re=HUGE)]), "term re"),
        (fileio.qseries_from_payload, _series([], q=[0.5, -HUGE]), "q"),
        (fileio.qfunction_from_payload,
         {"q": [0.5, 0.0], "r_x": HUGE, "r_y": 1.0, "f_list": [[[1.0, 0.0]]]}, "r_x"),
        (fileio.diskunion_from_payload,
         [{"re": 1.0, "im": 0.0, "radius": HUGE}], "disk radius"),
        (fileio.points_from_payload, [[0.5, 0.0], [HUGE, 0.0]], "point"),
    ])
    def test_message(self, reader, payload, what):
        with pytest.raises(InputFormatError) as info:
            reader(json.loads(json.dumps(payload)))
        assert str(info.value) == f"{what} {TOO_LARGE}"

    @pytest.mark.parametrize("command", ["twist", "qhull"])
    def test_exit_2_from_the_cli(self, tmp_path, capsys, command):
        src, points = tmp_path / "in.json", tmp_path / "pts.json"
        if command == "twist":
            src.write_text(json.dumps(_series([_term(re=HUGE)])))
            argv = ["twist", src]
            what = "term re"
        else:
            src.write_text(json.dumps([{"re": 1.0, "im": 0.0, "radius": HUGE}]))
            points.write_text(json.dumps([[0.5, 0.0]]))
            argv = ["qhull", src, points]
            what = "disk radius"
        assert run(argv) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: input: {what} {TOO_LARGE}"]

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json refuses to parse an integer literal of more than 4300 digits
        # (on an interpreter without that limit, the double overflows)
        src = tmp_path / "in.json"
        src.write_text(json.dumps(_series([_term(re=0)])).replace('"re": 0', '"re": 1' + "0" * 5000))
        assert run(["twist", src]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: input: invalid JSON: Exceeds the limit") or line == (
            f"error: input: term re {TOO_LARGE}")


class TestSeriesCommands:
    def test_mul_reorders_y_x(self, tmp_path, capsys):
        y = QSeries.monomial(Q, 4, 0, 1)
        x = QSeries.monomial(Q, 4, 1, 0)
        fy, fx, out = tmp_path / "y.json", tmp_path / "x.json", tmp_path / "out.json"
        write_series(fy, y)
        write_series(fx, x)
        assert run(["mul", fy, fx, "--output", out]) == 0
        assert read_series(out).terms() == [(1, 1, 0.5 + 0j)]

    def test_mul_q_mismatch_is_precondition(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_series(a, QSeries.one(0.5, 3))
        write_series(b, QSeries.one(0.25, 3))
        assert run(["mul", a, b]) == cli.EXIT_PRECONDITION

    def test_mul_overflow_is_precondition(self, tmp_path, rng, capsys):
        # dense D = 64 tables at q = 1.5: twists up to 1.5^4096 overflow in the box
        paths = []
        for name in ("a", "b"):
            table = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
            paths.append(tmp_path / f"{name}.json")
            write_series(paths[-1], QSeries(1.5, table))
        assert run(["mul", *paths]) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "|q| = 1.5" in err[0] and "degree-64" in err[0]

    def test_pow_formula_overflow_prints_one_error_line(self, tmp_path, rng):
        # 100 terms in a 200 x 200 table at q = 2: overflowed twists meet in
        # one cell across the kernel's steps; a subprocess shows any warning
        table = np.zeros((200, 200), dtype=complex)
        cells = rng.choice(200 * 200, size=100, replace=False)
        table[cells // 200, cells % 200] = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        src = tmp_path / "f.json"
        write_series(src, QSeries(2.0, table))
        proc = subprocess.run(
            [sys.executable, "-m", "qplane.cli", "pow", str(src), "--s", "2",
             "--method", "formula", "--output", str(tmp_path / "p.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == cli.EXIT_PRECONDITION
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "|q| = 2 inside the degree-199" in err[0]

    def test_unread_flags_are_gone(self, tmp_path):
        src = tmp_path / "f.json"
        write_series(src, QSeries.monomial(Q, 4, 1, 1))
        for flag in ("--trunc", "--tol"):
            with pytest.raises(SystemExit):
                run(["decay", src, flag, "1"])

    def test_pow_one_round_trips_file(self, tmp_path):
        f = QSeries.from_terms(Q, 5, [(1, 2, 0.3 - 1j), (0, 1, 2.0)])
        src, out = tmp_path / "f.json", tmp_path / "g.json"
        write_series(src, f)
        assert run(["pow", src, "--s", "1", "--output", out]) == 0
        assert read_series(out) == f

    def test_pow_methods_match(self, tmp_path):
        f = QSeries.from_terms(Q, 12, [(1, 1, 1.0), (2, 0, 0.5)])
        src = tmp_path / "f.json"
        write_series(src, f)
        o1, o2 = tmp_path / "r.json", tmp_path / "m.json"
        assert run(["pow", src, "--s", "3", "--method", "repeated", "--output", o1]) == 0
        assert run(["pow", src, "--s", "3", "--method", "formula", "--output", o2]) == 0
        a, b = read_series(o1), read_series(o2)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)

    def test_decompose_log_file(self, tmp_path):
        f = qa.log_shifted(1.5, QSeries.monomial(Q, 8, 1, 1))
        src = tmp_path / "f.json"
        write_series(src, f)
        out = tmp_path / "parts"
        assert run(["decompose", src, "--output", out]) == 0
        fx = read_series(tmp_path / "parts.x.json")
        fxy = read_series(tmp_path / "parts.xy.json")
        fy = read_series(tmp_path / "parts.y.json")
        assert fx.terms() == [(0, 0, complex(math.log(1.5)))]
        assert fy.terms() == []
        assert (fx + fxy + fy) == f

    def test_decompose_to_stdout_is_one_object(self, tmp_path, capsys):
        f = qa.log_shifted(1.5, QSeries.monomial(Q, 8, 1, 1))
        src = tmp_path / "f.json"
        write_series(src, f)
        assert run(["decompose", src, "--output", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["x", "xy", "y"]
        parts = qa.decompose(f)
        for name, part in zip(("x", "xy", "y"), (parts.f_x, parts.f_xy, parts.f_y)):
            assert fileio.qseries_from_payload(payload[name]) == part
        # no parts file is written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

    def test_twist_transposes(self, tmp_path):
        f = QSeries.from_terms(Q, 4, [(2, 1, 1.5)])
        src, out = tmp_path / "f.json", tmp_path / "t.json"
        write_series(src, f)
        assert run(["twist", src, "--output", out]) == 0
        assert read_series(out).terms() == [(1, 2, 1.5 + 0j)]

    def test_norm_csv(self, tmp_path):
        f = QSeries.monomial(Q, 4, 1, 1)
        src, out = tmp_path / "f.json", tmp_path / "n.csv"
        write_series(src, f)
        assert run(["norm", src, "--rho", "2.0", "--rho-x", "1.0",
                    "--rho-y", "3.0", "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,rho_x,rho_y,seminorm,p_seminorm"
        row = lines[1].split(",")
        assert float(row[3]) == 4.0
        assert float(row[4]) == 3.0

    def test_norm_past_the_double_range_reads_inf(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        write_series(src, QSeries.monomial(Q, 40, 1, 2))
        assert run(["norm", src, "--rho", "1e200", "--rho-y", "1e200"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "1e+200,1.0,1e+200,inf,inf"
        assert captured.err == ""


class TestDecayCommand:
    def test_pure_monomial_ratio_one(self, tmp_path):
        f = QSeries.monomial(Q, 24, 1, 1)
        src, out = tmp_path / "f.json", tmp_path / "d.csv"
        write_series(src, f)
        assert run(["decay", src, "--smax", "6", "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,root_norm,bound,ratio,lossy"
        assert len(lines) == 7
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, rel=1e-12)

    def test_zero_series_empty_profile(self, tmp_path):
        src, out = tmp_path / "z.json", tmp_path / "d.csv"
        write_series(src, QSeries.zero(Q, 4))
        assert run(["decay", src, "--output", out]) == 0
        assert out.read_text() == "s,root_norm,bound,ratio,lossy\n"

    def test_non_radical_rejected_with_monomials(self, tmp_path, capsys):
        f = QSeries.from_terms(Q, 4, [(1, 1, 1.0), (2, 0, 1.0)])
        src = tmp_path / "f.json"
        write_series(src, f)
        assert run(["decay", src]) == cli.EXIT_PRECONDITION
        assert "x^2 y^0" in capsys.readouterr().err

    def test_seeded_random_radical_ratios(self, tmp_path, capsys):
        gen = np.random.default_rng(42)
        table = np.zeros((25, 25), dtype=complex)
        for _ in range(4):
            i, k = gen.integers(1, 4, 2)
            table[i, k] = complex(gen.standard_normal(), gen.standard_normal())
        src, out = tmp_path / "f.json", tmp_path / "d.csv"
        write_series(src, QSeries(Q, table))
        assert run(["decay", src, "--output", out]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) <= 1 + 1e-12

    def test_unit_modulus_q_not_applicable(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        write_series(src, QSeries.monomial(1.0, 4, 1, 1))
        assert run(["decay", src]) == cli.EXIT_PRECONDITION
        assert "not applicable" in capsys.readouterr().err


class TestLossyAtTheBoundary:
    """Truncation loss leaves the CLI in the files it writes."""

    def test_mul_writes_lossy(self, tmp_path):
        x3 = QSeries.monomial(Q, 4, 3, 0)
        src, out = tmp_path / "x3.json", tmp_path / "out.json"
        write_series(src, x3)
        assert run(["mul", src, src, "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["lossy"] is True and payload["terms"] == []
        assert read_series(out).lossy

    def test_exact_product_writes_lossy_false(self, tmp_path):
        x = QSeries.monomial(Q, 4, 1, 0)
        src, out = tmp_path / "x.json", tmp_path / "out.json"
        write_series(src, x)
        assert run(["mul", src, src, "--output", out]) == 0
        assert json.loads(out.read_text())["lossy"] is False

    @pytest.mark.parametrize("method", ["repeated", "formula"])
    def test_pow_writes_lossy(self, tmp_path, method):
        f = QSeries.from_terms(Q, 4, [(2, 0, 1.0), (0, 1, 1.0)])
        src, out = tmp_path / "f.json", tmp_path / "out.json"
        write_series(src, f)
        assert run(["pow", src, "--s", "3", "--method", method, "--output", out]) == 0
        assert json.loads(out.read_text())["lossy"] is True

    def test_decay_lossy_column(self, tmp_path):
        src, out = tmp_path / "xy.json", tmp_path / "d.csv"
        write_series(src, QSeries.monomial(Q, 2, 1, 1))  # (xy)^3 leaves the D = 2 table
        assert run(["decay", src, "--smax", "4", "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[-1] == "lossy"
        assert [line.split(",")[-1] for line in lines[1:]] == ["0", "0", "1", "1"]
        write_series(src, QSeries.monomial(Q, 8, 1, 1))
        assert run(["decay", src, "--smax", "4", "--output", out]) == 0
        assert [line.split(",")[-1] for line in out.read_text().splitlines()[1:]] == ["0"] * 4

    def test_file_without_field_reads_exact_and_flag_round_trips(self, tmp_path):
        payload = fileio.qseries_to_payload(QSeries.monomial(Q, 3, 1, 1))
        del payload["lossy"]
        assert not fileio.qseries_from_payload(payload).lossy
        payload["lossy"] = True
        assert fileio.qseries_from_payload(payload).lossy
        payload["lossy"] = "yes"
        with pytest.raises(InputFormatError):
            fileio.qseries_from_payload(payload)

    def test_lossy_input_stays_lossy(self, tmp_path):
        src, out = tmp_path / "f.json", tmp_path / "t.json"
        write_series(src, QSeries(Q, np.eye(3), lossy=True))
        assert run(["twist", src, "--output", out]) == 0
        assert read_series(out).lossy


class TestTopologyCommands:
    @pytest.mark.parametrize("q", [(0.5, 0.0), (0.3, 0.4)])
    def test_qhull_csv_matches_per_point_walk(self, tmp_path, rng, q):
        # the CSV that testing each point with the copy-by-copy walk writes
        disk = [{"re": 1.0, "im": 0.0, "radius": 0.1}]
        probe = [[0.0, 0.0], [0.5, 0.0], [0.3, 0.0], [1.05, 0.0], [0.25, 0.0],
                 [1.1, 0.0], [1.0999999, 0.0]]
        u = np.sqrt(rng.uniform(0, 1, 128)) * np.exp(2j * np.pi * rng.uniform(0, 1, 128))
        near = complex(*q) ** rng.integers(0, 12, 128) * (1.0 + 0.15 * u)
        cloud = [[z.real, z.imag] for z in near] + rng.uniform(-1.1, 1.1, (128, 2)).tolist()
        hull = QHull(fileio.diskunion_from_payload(disk), complex(*q))
        disks = tmp_path / "disks.json"
        disks.write_text(json.dumps(disk))
        for name, pts in (("probe", probe), ("cloud", cloud)):
            points, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            points.write_text(json.dumps(pts))
            assert run(["qhull", disks, points, "--q-re", q[0], "--q-im", q[1],
                        "--output", out]) == 0
            want = io.StringIO()
            fileio.write_csv(
                want,
                ["z_re", "z_im", "member"],
                [[re, im, int(naive_hull_contains(hull, complex(re, im)))] for re, im in pts],
            )
            assert out.read_bytes() == want.getvalue().encode()

    def test_qhull_membership_csv(self, tmp_path):
        disks = tmp_path / "disks.json"
        points = tmp_path / "pts.json"
        out = tmp_path / "m.csv"
        disks.write_text(json.dumps([{"re": 1.0, "im": 0.0, "radius": 0.1}]))
        points.write_text(json.dumps([[0.5, 0.0], [0.3, 0.0], [0.0, 0.0]]))
        assert run(["qhull", disks, points, "--output", out]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "z_re,z_im,member"
        assert [r.split(",")[2] for r in rows[1:]] == ["1", "0", "1"]

    def test_spiral_writes_disk_union(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["spiral", "--lam-re", "1.0", "--eps", "0.3",
                    "--delta", "0.1", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload == [
            {"re": 0.0, "im": 0.0, "radius": 0.3},
            {"re": 1.0, "im": 0.0, "radius": 0.1},
            {"re": 0.5, "im": 0.0, "radius": 0.05},
        ]

    def test_spiral_rejects_zero_lambda(self, tmp_path):
        assert run(["spiral", "--lam-re", "0", "--eps", "0.3",
                    "--delta", "0.1"]) == cli.EXIT_PRECONDITION

    def test_spiral_orbit_that_never_sinks_exits_4(self, capsys):
        # |q|^n < 1e-300 needs about 7e9 steps, past the hull step cap
        assert run(["spiral", "--lam-re", "1.0", "--eps", "1e-300", "--delta", "0.1",
                    "--q-re", "0.9999999"]) == cli.EXIT_NONCONVERGENCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nonconvergence: orbit does not sink into the base disk\n"


class TestOperatorCommands:
    def test_modelpair_payload(self, tmp_path):
        out = tmp_path / "pair.json"
        assert run(["modelpair", "--n", "3", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 3
        assert payload["residual"] == 0.0
        assert payload["S"][1][1] == [0.5, 0.0]
        assert payload["T"][1][0] == [1.0, 0.0]

    def test_calc_constant_function(self, tmp_path):
        rep = QFunctionRep(Q, (HoloSeries.one(3),), 2.0, 2.0)
        src, out = tmp_path / "f.json", tmp_path / "m.json"
        write_function(src, rep)
        assert run(["calc", src, "--n", "4", "--output", out]) == 0
        payload = json.loads(out.read_text())
        got = np.array([[complex(re, im) for re, im in row] for row in payload["entries"]])
        assert np.array_equal(got, np.eye(4))

    def test_calc_domain_violation_exits_3(self, tmp_path, capsys):
        rep = QFunctionRep(Q, (HoloSeries.one(3),), 2.0, 0.5)
        src = tmp_path / "f.json"
        write_function(src, rep)
        assert run(["calc", src, "--n", "4"]) == cli.EXIT_PRECONDITION
        assert "spectrum outside domain" in capsys.readouterr().err

    ZERO_Q = {"q": [0, 0], "r_x": 2.0, "r_y": 2.0, "f_list": [[[1.0, 0.0]]]}

    def test_function_payload_with_zero_q_is_input_error(self):
        with pytest.raises(InputFormatError, match="^q must be nonzero$"):
            fileio.qfunction_from_payload(self.ZERO_Q)

    def test_calc_on_zero_q_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        src.write_text(json.dumps(self.ZERO_Q))
        assert run(["calc", src, "--n", "4"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input: q must be nonzero\n"

    def test_specmap_prints_max_distance_last(self, tmp_path, capsys):
        src, out = tmp_path / "f.json", tmp_path / "map.csv"
        write_function(src, log_xy_function(Q, 40, 40))
        assert run(["specmap", src, "--n", "32", "--output", out]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(last) <= 1e-8
        lines = out.read_text().splitlines()
        assert lines[0] == "actual_re,actual_im,predicted_re,predicted_im,distance"
        assert len(lines) == 33
        # the output path is the only file written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "map.csv"]

    def test_failed_eigenvalue_iteration_exits_4(self, tmp_path, capsys, monkeypatch):
        # opcalc.eigenvalues turns LAPACK's LinAlgError into NonConvergenceError
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        src = tmp_path / "f.json"
        write_function(src, log_xy_function(Q, 4, 4))
        assert run(["specmap", src, "--n", "4"]) == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err == (
            "error: nonconvergence: eigenvalue iteration failed: Eigenvalues did not converge\n"
        )

    def test_specmap_on_worked_input_leaves_scipy_optimize_out(self, tmp_path):
        src, out = tmp_path / "f.json", tmp_path / "map.csv"
        write_function(src, log_xy_function(Q, 40, 40))
        code = (
            "import sys; from qplane import cli; "
            f"code = cli.main(['specmap', {str(src)!r}, '--n', '32', '--output', {str(out)!r}]); "
            "print(code, 'scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.rstrip().endswith("\n0 False"), proc.stderr


class TestKoszulCommands:
    def test_single_character_row(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["koszul", "--gamma-re", "1.0", "--axis", "y",
                    "--n", "4", "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "g_re,g_im,axis,h0,h1,h2,member,stable,defect"
        row = lines[1].split(",")
        assert row[2] == "y"
        assert [row[3], row[4], row[5], row[6]] == ["0", "1", "1", "1"]

    def test_scan_empty_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--axis", "y", "--re-min", "0", "--re-max", "1",
                    "--steps", "0", "--output", out]) == 0
        assert out.read_text() == "g_re,g_im,axis,h0,h1,h2,member,stable\n"

    def test_scan_negative_steps_is_precondition(self, capsys):
        # it used to print an empty table and exit 0, like --steps 0
        assert run(["scan", "--axis", "y", "--re-min", "0", "--re-max", "1",
                    "--steps", "-3"]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: precondition: steps must be >= 0, got -3"]

    def test_scan_span_wider_than_doubles(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qplane.cli", "scan", "--axis", "x", "--re-min=-1e308",
             "--re-max=1e308", "--steps", "5", "--n", "4", "--output", "-"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [-1e308, -5e307, 0.0, 5e307, 1e308]
        assert all(r[3] != "-1" for r in rows)

    def test_scan_infinite_bound_is_error_rows(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--axis", "y", "--re-min", "0", "--re-max", "inf",
                    "--steps", "3", "--output", out]) == 0
        assert capsys.readouterr().err == ""
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 and all(r.split(",")[3:6] == ["-1"] * 3 for r in rows)

    def test_scan_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--axis", "y", "--re-min", "0", "--re-max", "1.2",
                "--steps", "97", "--n", "5"]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()


ROOT = Path(__file__).resolve().parents[1]
GENERATED_READERS = {
    "x.series.json": fileio.qseries_from_payload,
    "y.series.json": fileio.qseries_from_payload,
    "log_xy.series.json": fileio.qseries_from_payload,
    "log_xy_mixed.series.json": fileio.qseries_from_payload,
    "log_xy.qfn.json": fileio.qfunction_from_payload,
    "orbit_log.qfn.json": fileio.qfunction_from_payload,
    "base_disk.disks.json": fileio.diskunion_from_payload,
    "probe.points.json": fileio.points_from_payload,
}


def readme_tour():
    """The ``qplane`` lines of README's "CLI tour" block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI tour", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("qplane ")]


def test_generated_inputs_read_back_and_run_the_readme_tour(tmp_path, monkeypatch, capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_inputs.py"),
         "--dir", str(tmp_path / "inputs")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "inputs").iterdir()) == sorted(GENERATED_READERS)
    for name, reader in GENERATED_READERS.items():
        with open(tmp_path / "inputs" / name, "r", encoding="utf-8") as fp:
            reader(fileio.load_json(fp))

    monkeypatch.chdir(tmp_path)
    tour = readme_tour()
    assert len(tour) == 14
    for argv in tour:
        assert cli.main(argv) == cli.EXIT_OK, argv
        assert capsys.readouterr().err == ""


def test_console_entry_smoke(tmp_path):
    src = tmp_path / "f.json"
    with open(src, "w", encoding="utf-8") as fp:
        fileio.dump_json(fileio.qseries_to_payload(QSeries.one(Q, 2)), fp)
    proc = subprocess.run(
        [sys.executable, "-m", "qplane.cli", "norm", str(src)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rho,")


SERIES_LAYERS = {"qplane.qalgebra"}
OPERATOR_LAYERS = {"qplane.opcalc", "qplane.koszul", "qplane.qtopology"}
# opcalc stands on holo alone: the operator commands load neither the
# series algebra nor its kernels
SERIES_ALGEBRA = {"qplane.qalgebra", "qplane._accel"}
LOADS = [
    # (argv, layers it must load, layers it must leave out)
    (["mul", "{xy}", "{xy}"], SERIES_LAYERS, OPERATOR_LAYERS),
    (["pow", "{xy}", "--s", "3"], SERIES_LAYERS, OPERATOR_LAYERS),
    (["decompose", "{xy}"], SERIES_LAYERS, OPERATOR_LAYERS),
    (["norm", "{xy}"], SERIES_LAYERS, OPERATOR_LAYERS),
    (["decay", "{xy}"], SERIES_LAYERS, OPERATOR_LAYERS),
    (["twist", "{xy}"], SERIES_LAYERS, OPERATOR_LAYERS),
    (["qhull", "{disks}", "{points}"], {"qplane.qtopology"},
     {"qplane.qalgebra", "qplane.opcalc", "qplane.koszul"}),
    (["spiral", "--lam-re", "1.0", "--eps", "0.3", "--delta", "0.1"], {"qplane.qtopology"},
     {"qplane.qalgebra", "qplane.opcalc", "qplane.koszul"}),
    (["modelpair", "--n", "4"], {"qplane.opcalc"},
     {"qplane.koszul", "qplane.qtopology", *SERIES_ALGEBRA}),
    (["calc", "{fn}", "--n", "8"], {"qplane.opcalc"},
     {"qplane.koszul", "qplane.qtopology", *SERIES_ALGEBRA}),
    (["specmap", "{fn}", "--n", "8"], {"qplane.opcalc"},
     {"qplane.koszul", "qplane.qtopology", *SERIES_ALGEBRA}),
    (["koszul", "--gamma-re", "1.0", "--axis", "y", "--n", "4"], {"qplane.koszul"},
     {"qplane.qtopology", *SERIES_ALGEBRA}),
    (["scan", "--axis", "y", "--re-min", "0", "--re-max", "1", "--steps", "5", "--n", "4"],
     {"qplane.koszul"}, {"qplane.qtopology", *SERIES_ALGEBRA}),
]


@pytest.mark.parametrize("argv, needed, left_out", LOADS, ids=[c[0][0] for c in LOADS])
def test_subcommand_loads_only_its_layers(tmp_path, argv, needed, left_out):
    files = {name: tmp_path / f"{name}.json" for name in ("xy", "disks", "points", "fn")}
    write_series(files["xy"], QSeries.monomial(Q, 3, 1, 1))
    files["disks"].write_text(json.dumps([{"re": 1.0, "im": 0.0, "radius": 0.1}]))
    files["points"].write_text(json.dumps([[0.5, 0.0], [0.3, 0.0]]))
    write_function(files["fn"], log_xy_function(Q, 4, 4))
    argv = [a.format(**files) for a in argv] + ["--output", str(tmp_path / "out")]
    code = (
        "import sys; from qplane import cli; "
        f"code = cli.main({argv!r}); "
        "print(code, *sorted(m for m in sys.modules if m.startswith('qplane.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    status, *loaded = proc.stdout.splitlines()[-1].split()
    assert status == "0", proc.stderr
    assert needed <= set(loaded)
    assert not left_out & set(loaded), loaded


def test_building_the_parser_loads_no_math_layer():
    code = (
        "import sys; from qplane import cli; cli._build_parser(); "
        "print(*sorted(m for m in sys.modules if m.startswith('qplane.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["qplane.cli", "qplane.errors", "qplane.fileio"], proc.stderr


# Every subcommand with its required arguments; file arguments are only parsed.
BASE_ARGV = {
    "mul": ["a.json", "b.json"],
    "pow": ["f.json", "--s", "2"],
    "decompose": ["f.json"],
    "norm": ["f.json"],
    "decay": ["f.json"],
    "twist": ["f.json"],
    "qhull": ["disks.json", "points.json"],
    "spiral": ["--lam-re", "1.0", "--eps", "0.3", "--delta", "0.1"],
    "modelpair": [],
    "calc": ["fn.json"],
    "specmap": ["fn.json"],
    "koszul": ["--gamma-re", "1.0", "--axis", "y"],
    "scan": ["--axis", "y", "--re-min", "0", "--re-max", "1", "--steps", "3"],
}
Q_READERS = {"qhull", "spiral", "modelpair", "koszul", "scan"}
N_READERS = {"modelpair", "calc", "specmap", "koszul", "scan"}
# The flags every subcommand used to accept: a value each, and who reads it.
FORMER_SHARED = {
    "--q-re": ("0.25", Q_READERS),
    "--q-im": ("0.125", Q_READERS),
    "--n": ("5", N_READERS),
    "--rho": ("2.0", {"norm", "decay"}),
    "--rho-x": ("2.0", {"norm"}),
    "--rho-y": ("2.0", {"norm"}),
    "--smax": ("3", {"decay"}),
    "--rank-tol": ("0.001", {"koszul", "scan"}),
    "--seed": ("7", set()),
    "--output": ("out.csv", set(BASE_ARGV)),
}


@pytest.mark.parametrize("flag", list(FORMER_SHARED))
@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_subcommand_takes_only_the_flags_it_reads(command, flag, capsys):
    value, readers = FORMER_SHARED[flag]
    argv = [command, *BASE_ARGV[command], flag, value]
    if command in readers:
        args = cli._build_parser().parse_args(argv)
        assert str(getattr(args, flag[2:].replace("-", "_"))) == value
    else:
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


PRECONDITIONS = [
    *[([name, *argv, "--n", "0"], "dimension must be >= 1, got 0")
      for name, argv in [
          ("modelpair", []),
          ("calc", ["{fn}"]),
          ("specmap", ["{fn}"]),
          ("koszul", BASE_ARGV["koszul"]),
          ("scan", BASE_ARGV["scan"]),
      ]],
    *[([name, *argv, "--q-re", "0", "--q-im", "0"], "q must be nonzero")
      for name, argv in [
          ("qhull", ["{disks}", "{points}"]),
          ("spiral", BASE_ARGV["spiral"]),
          ("modelpair", []),
          ("koszul", BASE_ARGV["koszul"]),
          ("scan", BASE_ARGV["scan"]),
      ]],
    (["norm", "{xy}", "--rho", "0"], "--rho must be positive, got 0.0"),
    (["norm", "{xy}", "--rho-x", "0"], "--rho-x must be positive, got 0.0"),
    (["norm", "{xy}", "--rho-y", "0"], "--rho-y must be positive, got 0.0"),
    (["decay", "{xy}", "--rho", "0"], "--rho must be positive, got 0.0"),
    # no library call reads rho on the zero series; the check still holds
    (["decay", "{zero}", "--rho", "0"], "--rho must be positive, got 0.0"),
    # the zero series never reaches the library's own s_max check
    (["decay", "{xy}", "--smax", "0"], "s_max must be >= 1, got 0"),
    (["decay", "{zero}", "--smax", "0"], "s_max must be >= 1, got 0"),
    (["koszul", *BASE_ARGV["koszul"], "--rank-tol", "0"], "rank_tol must be positive, got 0.0"),
    (["scan", *BASE_ARGV["scan"], "--rank-tol", "0"], "rank_tol must be positive, got 0.0"),
    # infinite radii are refused before the file is read
    (["norm", "missing.json", "--rho", "inf"], "--rho must be finite, got inf"),
    (["norm", "missing.json", "--rho-x", "inf"], "--rho-x must be finite, got inf"),
    (["norm", "missing.json", "--rho-y", "inf"], "--rho-y must be finite, got inf"),
    (["decay", "missing.json", "--rho", "inf"], "--rho must be finite, got inf"),
    (["decay", "missing.json", "--smax", str(cli._MAX_SMAX + 1)],
     f"s_max must be <= {cli._MAX_SMAX}, got {cli._MAX_SMAX + 1}"),
    # a finite radius whose ||f||_rho overflows leaves no bound to compare with
    (["decay", "{xy}", "--rho", "1e200"],
     "the seminorm of the series overflows at rho = 1e+200"),
    (["spiral", *BASE_ARGV["spiral"], "--lam-re", "inf"], "orbit point must be finite, got (inf+0j)"),
    (["spiral", *BASE_ARGV["spiral"], "--lam-re", "nan"], "orbit point must be finite, got (nan+0j)"),
    (["spiral", *BASE_ARGV["spiral"], "--eps", "inf"], "radii must be finite, got eps=inf, delta=0.1"),
    (["spiral", *BASE_ARGV["spiral"], "--delta", "inf"], "radii must be finite, got eps=0.3, delta=inf"),
    # q^(n-1) overflows: no RuntimeWarning ahead of the error line
    (["modelpair", "--n", "3", "--q-re", "1e200"], "matrix entries must be finite"),
    (["scan", *BASE_ARGV["scan"], "--n", "3", "--q-re", "1e300"], "matrix entries must be finite"),
    # the pair is finite, but q S holds 1e400
    (["koszul", *BASE_ARGV["koszul"], "--n", "4", "--q-re", "1e100"],
     "q S leaves the double range at q = (1e+100+0j)"),
    (["scan", *BASE_ARGV["scan"], "--n", "4", "--q-re", "1e100"],
     "q S leaves the double range at q = (1e+100+0j)"),
]


def _precondition_id(argv):
    files = [a.strip("{}") for a in argv if a.startswith("{")]
    return " ".join([argv[0], *files, *argv[-2:]])


@pytest.mark.parametrize("argv, message", PRECONDITIONS,
                         ids=[_precondition_id(c[0]) for c in PRECONDITIONS])
def test_flag_preconditions_exit_3(tmp_path, capsys, argv, message):
    files = {name: tmp_path / f"{name}.json" for name in ("xy", "zero", "disks", "points", "fn")}
    write_series(files["xy"], QSeries.monomial(Q, 3, 1, 1))
    write_series(files["zero"], QSeries.zero(Q, 3))
    files["disks"].write_text(json.dumps([{"re": 1.0, "im": 0.0, "radius": 0.1}]))
    files["points"].write_text(json.dumps([[0.5, 0.0], [0.3, 0.0]]))
    write_function(files["fn"], log_xy_function(Q, 4, 4))
    assert run([a.format(**files) for a in argv]) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: precondition: {message}\n"


@pytest.mark.parametrize("argv", [
    ["modelpair", "--q-re", "1e200", "--n", "3"],
    ["scan", *BASE_ARGV["scan"], "--q-re", "1e300"],
], ids=["modelpair", "scan"])
def test_overflowing_q_prints_one_error_line(argv):
    # a warning printed by numpy would come ahead of the error line
    proc = subprocess.run(
        [sys.executable, "-m", "qplane.cli", *argv], capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_PRECONDITION
    assert proc.stderr == "error: precondition: matrix entries must be finite\n"


@pytest.mark.parametrize("argv", [
    ["modelpair"],
    ["koszul", "--gamma-re", "1.0", "--axis", "x"],
    ["koszul", "--gamma-re", "1.0", "--axis", "y"],
    ["scan", *BASE_ARGV["scan"]],
    ["scan", *BASE_ARGV["scan"][:1], "x", *BASE_ARGV["scan"][2:]],
], ids=["modelpair", "koszul-x", "koszul-y", "scan-y", "scan-x"])
def test_huge_q_runs_without_warning(argv):
    # q^2 = 1e200 leaves ||S||_F^2 past the double range, but neither the
    # pair check nor the composite defect squares it
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qplane.cli",
         *argv, "--n", "3", "--q-re", "1e100"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("command", sorted(N_READERS))
def test_dimension_cap_allocates_nothing(command, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated")

    for name in ("zeros", "empty", "eye", "diag"):
        monkeypatch.setattr(np, name, refuse)
    cap = cli._max_n(command)
    # the cap is the largest N whose stated matrices fit in the budget
    held = 16 * cli._HELD_MATRICES[command]
    assert held * cap**2 <= cli._MEMORY_BUDGET < held * (cap + 1) ** 2
    argv = [command, *BASE_ARGV[command], "--n", "100000000"]
    assert run(argv) == cli.EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        f"error: precondition: dimension must be <= {cap} for {command}, got 100000000\n"
    )
    assert run([command, *BASE_ARGV[command], "--n", str(cap + 1)]) == cli.EXIT_PRECONDITION
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args([command, "--help"])
    assert f"1 to {cap}:" in " ".join(capsys.readouterr().out.split())


def test_scan_point_cap_allocates_nothing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated")

    for name in ("linspace", "zeros", "empty", "eye", "diag"):
        monkeypatch.setattr(np, name, refuse)
    cap = cli._MAX_POINTS
    # the cap is the largest grid whose stated bytes per point fit in the budget
    assert cli._POINT_BYTES * cap <= cli._MEMORY_BUDGET < cli._POINT_BYTES * (cap + 1)
    both_open = [*BASE_ARGV["scan"][:-2], "--im-max", "1"]
    assert run(["scan", *both_open, "--steps", "100000"]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        f"error: precondition: the grid must have <= {cap} points, got 10000000000\n"
    )
    side = math.isqrt(cap)
    assert run(["scan", *both_open, "--steps", str(side + 1)]) == cli.EXIT_PRECONDITION
    assert run(["scan", *BASE_ARGV["scan"][:-1], str(cap + 1)]) == cli.EXIT_PRECONDITION
    assert len(capsys.readouterr().err.splitlines()) == 2
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["scan", "--help"])
    assert f"at most {cap} points" in " ".join(capsys.readouterr().out.split())


def test_decay_smax_cap_is_stated(capsys):
    cap = cli._MAX_SMAX
    # the cap is the longest profile whose stated bytes per row fit in the budget
    assert cli._ROW_BYTES * cap <= cli._MEMORY_BUDGET < cli._ROW_BYTES * (cap + 1)
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["decay", "--help"])
    assert f"1 to {cap}:" in " ".join(capsys.readouterr().out.split())


# The boundary table: every numeric option at its edges, one subcommand
# reading it per case.  Placeholders name the input files of the table.
TABLE_ARGV = {
    **BASE_ARGV,
    "mul": ["{xy}", "{xy}"],
    "pow": ["{xy}", "--s", "2"],
    "decompose": ["{xy}"],
    "norm": ["{xy}"],
    "decay": ["{xy}"],
    "twist": ["{xy}"],
    "qhull": ["{disks}", "{points}"],
    "calc": ["{fn}"],
    "specmap": ["{fn}"],
}
SERIES_READERS = {"mul", "pow", "decompose", "norm", "decay", "twist"}
# "<command>.trunc" reads, in place of xy, a one-term file at one past the
# command's trunc cap, which must be refused before any array is allocated
TABLE_ARGV.update({
    f"{c}.trunc": [a.replace("{xy}", f"{{over_{c}}}") for a in TABLE_ARGV[c]]
    for c in SERIES_READERS
})
FLOAT_EDGES = ["0", "-1", "1e-300", "1e300", "inf", "nan"]
FLOAT_READERS = {
    "--q-re": Q_READERS, "--q-im": Q_READERS,
    "--gamma-re": {"koszul"}, "--gamma-im": {"koszul"},
    "--rank-tol": {"koszul", "scan"},
    "--re-min": {"scan"}, "--re-max": {"scan"}, "--im-min": {"scan"}, "--im-max": {"scan"},
    "--lam-re": {"spiral"}, "--lam-im": {"spiral"}, "--eps": {"spiral"}, "--delta": {"spiral"},
    "--rho": {"norm", "decay"}, "--rho-x": {"norm"}, "--rho-y": {"norm"},
}
INT_EDGES = ["0", "-1", "1", "300"]
BOUNDARY = [  # (subcommand, the options after its base arguments)
    *[(c, [f"{opt}={v}"])
      for opt, readers in FLOAT_READERS.items() for c in sorted(readers) for v in FLOAT_EDGES],
    *[(c, [f"--n={v}"]) for c in sorted(N_READERS) for v in [*INT_EDGES, str(cli._max_n(c) + 1)]],
    *[("pow", [f"--s={v}"]) for v in INT_EDGES],
    # 2 terms to the 20th power pass QPOW_FORMULA_CAP, and so does xy's
    # 10^9-th power's table; --s has no cap with the repeated method
    ("pow", ["--method=formula", "--s=20", "{two}"]),
    ("pow", ["--method=formula", "--s=1000000000", "{two}"]),
    ("pow", ["--method=formula", "--s=1000000000"]),
    *[("decay", [f"--smax={v}"]) for v in [*INT_EDGES, str(cli._MAX_SMAX + 1)]],
    *[("scan", [f"--steps={v}"]) for v in [*INT_EDGES, str(cli._MAX_POINTS + 1)]],
    *[(f"{c}.trunc", []) for c in sorted(SERIES_READERS)],
    *[(c, [f"--q-re={re}", f"--q-im={im}"])
      for re, im in [("1e100", "0"), ("1e-100", "0"), ("-1", "0"), ("0", "1")]
      for c in sorted(Q_READERS)],
]
# Non-finite values the README documents: a seminorm past the double
# range reads inf, and a scan error row keeps its character.
DOCUMENTED_NON_FINITE = {("norm", "seminorm"), ("norm", "p_seminorm")}


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("table")
    files = {name: d / f"{name}.json" for name in ("xy", "two", "disks", "points", "fn")}
    write_series(files["xy"], QSeries.monomial(Q, 3, 1, 1))
    two = np.zeros((4, 4))
    two[1, 0] = two[0, 1] = 1.0
    write_series(files["two"], QSeries(Q, two))
    files["disks"].write_text(json.dumps([{"re": 1.0, "im": 0.0, "radius": 0.1}]))
    files["points"].write_text(json.dumps([[0.5, 0.0], [0.3, 0.0]]))
    write_function(files["fn"], log_xy_function(Q, 4, 4))
    for c in SERIES_READERS:
        files[f"over_{c}"] = d / f"over_{c}.json"
        files[f"over_{c}"].write_text(json.dumps({
            "q": [Q, 0.0], "trunc": cli._max_trunc(c) + 1,
            "terms": [{"i": 1, "k": 1, "re": 1.0, "im": 0.0}],
        }))
    return files


def _non_finite_cells(command: str, out: str) -> list:
    """The non-finite numbers of an output that no documented rule allows."""
    if out[:1] in "[{":
        # json writes a non-finite float as NaN, Infinity or -Infinity
        bad = []
        json.loads(out, parse_constant=bad.append)
        return bad
    lines = out.splitlines()
    header, bad = lines[0].split(","), []
    for line in lines[1:]:
        row = line.split(",")
        error_row = command == "scan" and row[3:6] == ["-1"] * 3
        for col, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                continue
            allowed = (command, col) in DOCUMENTED_NON_FINITE and value == math.inf
            if not (math.isfinite(value) or allowed or error_row):
                bad.append((col, cell))
    return bad


@pytest.mark.parametrize("command, edge", BOUNDARY,
                         ids=[" ".join([c, *edge]).translate(str.maketrans("", "", "{}"))
                              for c, edge in BOUNDARY])
def test_boundary_table(table_files, command, edge, capsys, monkeypatch):
    name, _, over_cap = command.partition(".")
    if over_cap:
        def refuse(*args, **kwargs):
            raise AssertionError("an array was allocated")

        for attr in ("zeros", "empty", "zeros_like"):
            monkeypatch.setattr(np, attr, refuse)
    argv = [a.format(**table_files) for a in [name, *TABLE_ARGV[command], *edge]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_PRECONDITION, cli.EXIT_NONCONVERGENCE)
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) <= 1, captured.err
    if over_cap:
        cap = cli._max_trunc(name)
        # the cap is the largest D whose stated (D+1)^2 tables fit in the budget
        held = 16 * cli._HELD_TABLES[name]
        assert held * (cap + 1) ** 2 <= cli._MEMORY_BUDGET < held * (cap + 2) ** 2
        assert (code, errors) == (cli.EXIT_PRECONDITION, [
            f"error: precondition: trunc must be <= {cap} for {name}, got {cap + 1}"
        ])
    if code == cli.EXIT_OK:
        assert captured.err == ""
        assert _non_finite_cells(name, captured.out) == []
