import ctypes
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tangentray import cli


def run_cli(args, tmp_path=None):
    return cli.main(args)


def test_airy_zeros_schema(tmp_path):
    out = tmp_path / "zeros.csv"
    assert cli.main(["airy-zeros", "--count", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,eta_n,eta_prime_n"
    assert len(lines) == 5
    assert lines[1].startswith("0,-2.338107410459767")


def test_table_schema_and_determinism(tmp_path):
    args = ["table", "--bc", "robin", "--mu-re", "1", "--mu-im", "1",
            "--tre-range", "0.5:1.5:2", "--tim-range", "0.25:0.25:1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "t_re,t_im,bc,p_hat_re,p_hat_im,representation,err"
    assert len(lines) == 3
    assert "robin" in lines[1]
    assert lines[1].split(",")[5] in ("residue_series", "reciprocal_airy_contour",
                                      "forked_contour", "pole_split")


def test_field_grid_cardinality(tmp_path):
    out = tmp_path / "field.csv"
    assert cli.main(["field", "--xhat-range=-1:1:3", "--yhat-range=0:2:4",
                     "--rep", "new", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_hat,y_hat,n_hat,A_re,A_im,As_re,As_im,err"
    assert len(lines) == 1 + 3 * 4


def test_field_rejected_points_are_nan_rows(tmp_path):
    out = tmp_path / "field.csv"
    assert cli.main(["field", "--xhat-range=2:2:1", "--yhat-range=-4:-4:1",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert "nan" in lines[1]


def test_penumbra_schema(tmp_path):
    out = tmp_path / "pen.csv"
    assert cli.main(["penumbra", "--ytilde-range", "0.2:0.6:2",
                     "--mode", "uniform", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ytilde,ycheck,A_re,A_im,mode"
    assert len(lines) == 3
    assert lines[1].endswith("uniform")


def test_bad_range_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main(["table", "--tre-range", "junk"])
    for args in (["field", "--xhat-range=nan:nan:1"], ["table", "--tre-range=inf:inf:1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert "bad range" in str(exc.value.code)


def test_failed_impedance_root_is_an_error_line(capsys, monkeypatch):
    from tangentray import airy

    def stalled(count, alpha, beta):
        raise airy.RootContinuationError(
            f"impedance-root Newton stalled for n=0, mu_hat={alpha / beta}")

    # a planted failure in the root solver the residue series calls: a fresh
    # mu_hat, so no cached root bypasses it
    monkeypatch.setattr(airy, "impedance_roots", stalled)
    args = ["table", "--bc", "robin", "--mu-re", "1.07", "--mu-im", "-2.70",
            "--tre-range", "1:2:2", "--tim-range", "1:1:1"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_airy_zeros_count_below_one_is_usage_error(capsys):
    for count in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["airy-zeros", "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err


def test_nonfinite_kappa_is_an_error_line(capsys):
    assert cli.main(["field", "--kappa", "inf", "--xhat-range=0:0:1",
                     "--yhat-range=1:1:1"]) == 1
    assert "kappa must be finite and positive" in capsys.readouterr().err


def test_negative_wavenumber_is_an_error_line(capsys):
    # a negative k gave complex k^(1/6) and a TypeError traceback from the
    # CSV writer
    assert cli.main(["penumbra", "--k=-1", "--ytilde-range=0.2:0.6:2"]) == 1
    assert "error: wavenumber k must be positive" in capsys.readouterr().err


def test_main_pins_the_bundled_openblas_to_one_thread(tmp_path):
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            break
    else:
        pytest.skip("numpy bundles no scipy-openblas")
    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
    put(2)
    assert cli.main(["airy-zeros", "--count", "2", "--out", str(tmp_path / "z.csv")]) == 0
    assert get() == 1


def test_overflowing_field_point_is_an_error_line(capsys):
    # x_hat^2 overflows, so n_hat is infinite: no row can say where the
    # point is, and every representation refuses it by name
    for rep in ("new", "forked", "gamma"):
        for x in ("-1e200", "1e200"):
            assert cli.main(["field", "--rep", rep, f"--xhat-range={x}:{x}:1",
                             "--yhat-range=1:1:1"]) == 1
            assert capsys.readouterr().err.startswith(f"error: point ({float(x)}, 1.0)")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_quick_passes_quickly(tmp_path):
    import time
    from tangentray import verify as vf
    t0 = time.time()
    report = vf.run_suite(quick=True)
    elapsed = time.time() - t0
    assert report.passed
    assert elapsed < 120.0
    data = json.loads(report.to_json())
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"airy_identities",
                                                   "fock_three_way_oracle"}



def test_unconverged_residue_series_fails_the_caret_check(tmp_path, monkeypatch):
    # a residue value that did not converge is a failed check naming its
    # point, in the report of a verify run that exits 1 (no traceback, and no
    # assert for python -O to skip)
    from tangentray import pekeris as pk
    series = pk.caret_residue_series

    def unconverged(*args, **kwargs):
        vals, errs, ok = series(*args, **kwargs)
        return vals, errs, np.zeros_like(ok)

    monkeypatch.setattr(pk, "caret_residue_series", unconverged)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    caret = checks["caret_representation_agreement"]
    assert not caret["passed"] and caret["measured"] == math.inf
    assert "t = 0.5+0j" in caret["detail"] and "dirichlet" in caret["detail"]

def test_env_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TANGENTRAY_RTOL", "1e-6")
    out = tmp_path / "f.csv"
    assert cli.main(["field", "--xhat-range=0:0:1", "--yhat-range=1:1:1",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("rtol", ["nan", "inf"])
def test_env_tolerance_must_be_finite(capsys, monkeypatch, rtol):
    monkeypatch.setenv("TANGENTRAY_RTOL", rtol)
    assert cli.main(["field", "--xhat-range=0:0:1", "--yhat-range=1:1:1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert captured.out == ""


def test_verify_states_each_checks_comparison(tmp_path, capsys, monkeypatch):
    # a check that must reach a value or stay in a band says so in the text
    # output and the JSON report, beside the upper bounds
    from tangentray import verify as vf
    sectors = vf.check_asymptotic_sectors()
    assert sectors.passed and sectors.compare == ">=" and sectors.tolerance == 1.0
    band = vf._check("band", (3.5, 4.5), compare="in")
    checks = [sectors, band(lambda: 4.2)(), band(lambda: 4.6)(),
              vf._check("bound", 1e-10)(lambda: 5e-11)()]
    assert [c.passed for c in checks] == [True, True, False, True]
    monkeypatch.setattr(vf, "run_suite", lambda quick=False: vf.VerificationReport(checks))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert f"measured={sectors.measured:.3e} >= 1.0 " in text
    assert "measured=4.200e+00 in (3.5, 4.5) " in text
    assert "measured=5.000e-11 <= 1e-10 " in text
    data = json.loads(out.read_text())["checks"]
    assert [(c["compare"], c["tolerance"]) for c in data] == [
        (">=", 1.0), ("in", [3.5, 4.5]), ("in", [3.5, 4.5]), ("<=", 1e-10)]
