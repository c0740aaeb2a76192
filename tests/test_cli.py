"""CLI subcommands driven end to end through temporary files."""

import math

import numpy as np
import pytest

from so3filter import PolarCap, make_test_signal, synthesize
from so3filter.cli import main, parse_region, read_config
from so3filter.io import read_coeffs, read_covariance


def test_parse_region_cap():
    cap = parse_region("cap:15")
    assert isinstance(cap, PolarCap)
    assert cap.theta0 == pytest.approx(math.radians(15))


def test_parse_region_ellipse():
    ell = parse_region("ellipse:15,16")
    assert ell.focus_colatitude == pytest.approx(math.radians(15))
    assert ell.semi_major == pytest.approx(math.radians(16))


def test_parse_region_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_region("disk:3")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_region("cap:abc")


def test_read_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\nlf = 8\nregion= cap:15\n\nsnr_db=0,5\n")
    values = read_config(cfg)
    assert values == {"lf": "8", "region": "cap:15", "snr_db": "0,5"}


def test_slepian_command(tmp_path):
    out = tmp_path / "win.slm"
    eig = tmp_path / "eig.csv"
    assert main(["slepian", "--region", "cap:20", "--lh", "4",
                 "--out", str(out), "--eigenvalues", str(eig)]) == 0
    h = read_coeffs(out)
    assert h.bandlimit == 4
    assert h.norm() == pytest.approx(1.0)
    lines = eig.read_text().splitlines()
    assert lines[0] == "k,eigenvalue"
    assert len(lines) == 17


def test_synth_noise_command(tmp_path):
    out = tmp_path / "z.slm"
    cov = tmp_path / "z.cov"
    args = ["synth-noise", "--lf", "3", "--seed", "5", "--mixing-seed", "2",
            "--out", str(out), "--cov-out", str(cov)]
    assert main(args) == 0
    z1 = read_coeffs(out)
    assert main(args) == 0
    z2 = read_coeffs(out)
    np.testing.assert_array_equal(z1.data, z2.data)
    c = read_covariance(cov)
    assert c.bandlimit == 3


def test_snr_command(tmp_path, capsys):
    from so3filter.io import write_coeffs
    from so3filter import SphericalCoeffs

    s = make_test_signal(3, 1)
    d = SphericalCoeffs(3, 2.0 * s.data)
    write_coeffs(tmp_path / "s.slm", s)
    write_coeffs(tmp_path / "d.slm", d)
    assert main(["snr", "--signal", str(tmp_path / "s.slm"),
                 "--observed", str(tmp_path / "d.slm")]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.0, abs=1e-9)  # error norm == signal norm


def test_denoise_command_noiseless(tmp_path):
    from so3filter.io import write_coeffs

    s = make_test_signal(5, 9)
    write_coeffs(tmp_path / "s.slm", s)
    write_coeffs(tmp_path / "f.slm", s)
    assert main(["slepian", "--region", "cap:40", "--lh", "3",
                 "--out", str(tmp_path / "h.slm")]) == 0
    assert main(["denoise", "--observed", str(tmp_path / "f.slm"),
                 "--window", str(tmp_path / "h.slm"),
                 "--source", str(tmp_path / "s.slm"),
                 "--out", str(tmp_path / "est.slm")]) == 0
    est = read_coeffs(tmp_path / "est.slm")
    assert np.linalg.norm(est.data - s.data) < 1e-6 * np.linalg.norm(s.data)


def test_denoise_requires_covariance_source(tmp_path):
    from so3filter.io import write_coeffs

    s = make_test_signal(3, 2)
    write_coeffs(tmp_path / "f.slm", s)
    write_coeffs(tmp_path / "h.slm", s)
    with pytest.raises(SystemExit):
        main(["denoise", "--observed", str(tmp_path / "f.slm"),
              "--window", str(tmp_path / "h.slm"),
              "--out", str(tmp_path / "o.slm")])


def test_benchmark_command_deterministic(tmp_path):
    args = ["benchmark", "--lf", "4", "--lh", "2", "--region", "cap:40",
            "--snr-db", "0", "--realizations", "2", "--seed", "99",
            "--out-dir", str(tmp_path / "run1")]
    assert main(args) == 0
    args[-1] = str(tmp_path / "run2")
    assert main(args) == 0
    rows1 = (tmp_path / "run1" / "results.csv").read_bytes()
    rows2 = (tmp_path / "run2" / "results.csv").read_bytes()
    assert rows1 == rows2
    header = rows1.decode().splitlines()[0]
    assert header == "target_db,realization,input_db,output_db"
    assert (tmp_path / "run1" / "summary.csv").exists()


def test_benchmark_config_file_with_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lf=4\nlh=2\nregion=cap:40\nsnr_db=5\nrealizations=1\nseed=7\n")
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--snr-db", "3",
                 "--out-dir", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[1].startswith("3,")


def test_render_command(tmp_path):
    from so3filter.io import write_coeffs
    from so3filter import SphericalCoeffs

    # Y_1^0 raster: monotone in colatitude, constant along longitude
    data = np.zeros(4, dtype=complex)
    data[2] = 1.0
    write_coeffs(tmp_path / "c.slm", SphericalCoeffs(2, data))
    assert main(["render", "--coeffs", str(tmp_path / "c.slm"),
                 "--rows", "8", "--cols", "6", "--out", str(tmp_path / "map")]) == 0
    txt = np.loadtxt(tmp_path / "map.txt")
    assert txt.shape == (8, 6)
    assert np.allclose(txt, txt[:, :1])          # no longitude dependence
    assert np.all(np.diff(txt[:, 0]) < 0)        # cos(theta) decreases
    # text grid must match direct synthesis exactly
    thetas = math.pi * (np.arange(8) + 0.5) / 8
    phis = 2 * math.pi * np.arange(6) / 6
    coeffs = read_coeffs(tmp_path / "c.slm")
    expected = synthesize(coeffs, thetas[:, None], phis[None, :]).real
    assert np.array_equal(txt, np.loadtxt(tmp_path / "map.txt"))
    np.testing.assert_allclose(txt, expected, rtol=0, atol=0)
    assert (tmp_path / "map.pgm").exists()
    assert (tmp_path / "map_mag.pgm").exists()


def test_render_constant_signal(tmp_path):
    from so3filter.io import write_coeffs
    from so3filter import SphericalCoeffs

    data = np.zeros(1, dtype=complex)
    data[0] = 2.0
    write_coeffs(tmp_path / "c.slm", SphericalCoeffs(1, data))
    assert main(["render", "--coeffs", str(tmp_path / "c.slm"),
                 "--rows", "4", "--cols", "4", "--out", str(tmp_path / "flat")]) == 0
    raw = (tmp_path / "flat.pgm").read_bytes()
    assert raw[-16:] == bytes(16)  # constant raster normalises to a flat image
