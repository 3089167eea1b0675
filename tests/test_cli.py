import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qplane import cli, fileio
from qplane import qalgebra as qa
from qplane.holo import HoloSeries
from qplane.opcalc import QFunctionRep
from qplane.qalgebra import QSeries

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


class TestDecayCommand:
    def test_pure_monomial_ratio_one(self, tmp_path):
        f = QSeries.monomial(Q, 24, 1, 1)
        src, out = tmp_path / "f.json", tmp_path / "d.csv"
        write_series(src, f)
        assert run(["decay", src, "--smax", "6", "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,root_norm,bound,ratio"
        assert len(lines) == 7
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, rel=1e-12)

    def test_zero_series_empty_profile(self, tmp_path):
        src, out = tmp_path / "z.json", tmp_path / "d.csv"
        write_series(src, QSeries.zero(Q, 4))
        assert run(["decay", src, "--output", out]) == 0
        assert out.read_text() == "s,root_norm,bound,ratio\n"

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
        assert run(["decay", src, "--seed", "42", "--output", out]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) <= 1 + 1e-12

    def test_unit_modulus_q_not_applicable(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        write_series(src, QSeries.monomial(1.0, 4, 1, 1))
        assert run(["decay", src]) == cli.EXIT_PRECONDITION
        assert "not applicable" in capsys.readouterr().err


class TestTopologyCommands:
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

    def test_specmap_prints_max_distance_last(self, tmp_path, capsys):
        from test_opcalc import log_xy_rep

        src, out = tmp_path / "f.json", tmp_path / "map.csv"
        write_function(src, log_xy_rep())
        assert run(["specmap", src, "--n", "32", "--output", out]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(last) <= 1e-8
        lines = out.read_text().splitlines()
        assert lines[0] == "actual_re,actual_im,predicted_re,predicted_im,distance"
        assert len(lines) == 33
        assert (tmp_path / "map.xbranch.csv").exists()


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

    def test_scan_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--axis", "y", "--re-min", "0", "--re-max", "1.2",
                "--steps", "97", "--n", "5"]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()


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
