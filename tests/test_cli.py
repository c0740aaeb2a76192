"""CLI subcommands driven end to end through temporary files."""

import math
import warnings

import numpy as np
import pytest

from so3filter import PolarCap, build_signal_covariance, make_test_signal, synthesize
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
    # a zero-area ellipse fails in SphericalEllipse with a one-line ValueError
    with pytest.raises(argparse.ArgumentTypeError, match="focus colatitude < semi-major") as exc:
        parse_region("ellipse:15,15")
    assert isinstance(exc.value.__cause__, ValueError)
    assert "\n" not in str(exc.value)
    # so does an ellipse too small for its boundary formula, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(argparse.ArgumentTypeError, match="too small") as exc:
            parse_region("ellipse:1e-168,2e-168")
    assert "\n" not in str(exc.value)
    # and one whose quadrature weights would all underflow
    with pytest.raises(argparse.ArgumentTypeError, match="too small"):
        parse_region("ellipse:8.6e-161,1.7e-160")
    # and a cap whose sin^2(theta0 / 2) underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(argparse.ArgumentTypeError, match="degenerate") as exc:
            parse_region("cap:1e-168")
    assert isinstance(exc.value.__cause__, ValueError)
    assert "\n" not in str(exc.value)


def test_read_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    # a "#" starts a comment only at the start of a line or after whitespace
    cfg.write_text("# comment\nlf = 8  # desk\nregion= cap:15\n\t# indented\n\nsnr_db=0,5\nout_dir=runs#1\n")
    values = read_config(cfg)
    assert values == {"lf": "8", "region": "cap:15", "snr_db": "0,5", "out_dir": "runs#1"}


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


def test_denoise_reads_source_once(tmp_path, monkeypatch):
    from so3filter import cli
    from so3filter.io import write_coeffs

    s = make_test_signal(3, 4)
    for name in ("s", "f", "h"):
        write_coeffs(tmp_path / f"{name}.slm", s)
    reads = []
    monkeypatch.setattr(cli.sfio, "read_coeffs",
                        lambda path: reads.append(str(path)) or read_coeffs(path))
    assert main(["-v", "denoise", "--observed", str(tmp_path / "f.slm"),
                 "--window", str(tmp_path / "h.slm"),
                 "--source", str(tmp_path / "s.slm"),
                 "--out", str(tmp_path / "est.slm")]) == 0
    assert reads.count(str(tmp_path / "s.slm")) == 1


def test_denoise_rejects_source_bandlimit_mismatch(tmp_path):
    from so3filter.io import write_coeffs

    write_coeffs(tmp_path / "f.slm", make_test_signal(4, 1))
    write_coeffs(tmp_path / "h.slm", make_test_signal(2, 2))
    write_coeffs(tmp_path / "s.slm", make_test_signal(3, 3))
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--observed", str(tmp_path / "f.slm"),
              "--window", str(tmp_path / "h.slm"),
              "--source", str(tmp_path / "s.slm"),
              "--out", str(tmp_path / "est.slm")])
    assert str(tmp_path / "f.slm") in str(exc.value)
    assert str(tmp_path / "s.slm") in str(exc.value)
    assert not (tmp_path / "est.slm").exists()


@pytest.mark.parametrize("flag", ["--signal-cov", "--noise-cov"])
def test_denoise_rejects_covariance_bandlimit_mismatch(tmp_path, flag):
    from so3filter.io import write_coeffs, write_covariance

    write_coeffs(tmp_path / "f.slm", make_test_signal(4, 1))
    write_coeffs(tmp_path / "h.slm", make_test_signal(2, 2))
    write_covariance(tmp_path / "good.cov", build_signal_covariance(make_test_signal(4, 3)))
    write_covariance(tmp_path / "bad.cov", build_signal_covariance(make_test_signal(3, 3)))
    covs = {"--signal-cov": "good.cov", "--noise-cov": "good.cov", flag: "bad.cov"}
    args = ["denoise", "--observed", str(tmp_path / "f.slm"), "--window", str(tmp_path / "h.slm"),
            "--out", str(tmp_path / "est.slm")]
    for name, file in covs.items():
        args += [name, str(tmp_path / file)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert str(tmp_path / "f.slm") in str(exc.value)
    assert str(tmp_path / "bad.cov") in str(exc.value)
    assert not (tmp_path / "est.slm").exists()


def test_snr_rejects_bandlimit_mismatch(tmp_path):
    from so3filter.io import write_coeffs

    write_coeffs(tmp_path / "s.slm", make_test_signal(3, 1))
    write_coeffs(tmp_path / "d.slm", make_test_signal(4, 2))
    with pytest.raises(SystemExit) as exc:
        main(["snr", "--signal", str(tmp_path / "s.slm"), "--observed", str(tmp_path / "d.slm")])
    assert str(tmp_path / "s.slm") in str(exc.value)
    assert str(tmp_path / "d.slm") in str(exc.value)


def _write_malformed(path, text):
    """A copy of a valid L=2 file whose second data line reads ``text``."""
    lines = path.read_text().splitlines()
    lines[2] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "command, bad, text",
    [
        ("denoise", "f.slm", "1 abc 0"),
        ("denoise", "noise.cov", "0 0 abc 0 0 0 0 0"),
        ("denoise", "noise.cov", "0 0 nan 0 0 0 0 0"),
        ("snr", "f.slm", "1 nan 0"),
        ("render", "s.slm", "1 0 abc"),
    ],
)
def test_malformed_number_exits_with_one_line(tmp_path, command, bad, text):
    from so3filter.io import write_coeffs, write_covariance

    s = make_test_signal(2, 5)
    for name in ("s", "f", "h"):
        write_coeffs(tmp_path / f"{name}.slm", s)
    write_covariance(tmp_path / "noise.cov", build_signal_covariance(s))
    _write_malformed(tmp_path / bad, text)
    t = {name: str(tmp_path / name) for name in ("s.slm", "f.slm", "h.slm", "noise.cov")}
    args = {
        "denoise": ["denoise", "--observed", t["f.slm"], "--window", t["h.slm"],
                    "--source", t["s.slm"], "--noise-cov", t["noise.cov"],
                    "--out", str(tmp_path / "est.slm")],
        "snr": ["snr", "--signal", t["s.slm"], "--observed", t["f.slm"]],
        "render": ["render", "--coeffs", t["s.slm"], "--out", str(tmp_path / "map")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(args)
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"{tmp_path / bad}: line 3: ")
    assert not (tmp_path / "est.slm").exists()


@pytest.mark.parametrize(
    "args, names",
    [
        (["slepian", "--region", "cap:abc", "--lh", "4"], ["--region", "cap:abc"]),
        (["slepian", "--region", "cap:15", "--lh", "0"], ["--lh", "0"]),
        (["benchmark", "--region", "cap:abc"], ["region", "cap:abc"]),
        (["benchmark", "--config", "{cfg}"], ["region", "cap:abc"]),
        (["benchmark", "--config", "{typo}"], ["{typo}", "unknown config key 'realisations'"]),
        (["benchmark", "--snr-db", "0,x"], ["snr_db", "'x'"]),
        (["benchmark", "--realizations", "0"], ["realization"]),
        (["benchmark", "--lf", "0"], ["bandlimit"]),
        (["benchmark", "--snr-db", "7000"], ["SNR target", "7000"]),
        (["synth-noise", "--lf", "-3"], ["bandlimit", "-3"]),
        (["synth-noise", "--lf", "0"], ["bandlimit", "0"]),
        (["synth-noise", "--lf", "2", "--scale", "nan"], ["scale", "nan"]),
        (["synth-noise", "--lf", "2", "--scale", "-1"], ["scale", "-1"]),
        (["synth-noise", "--lf", "2", "--seed", "-1"], ["--seed", "-1"]),
        (["synth-noise", "--lf", "2", "--mixing-seed", "-1"], ["--mixing-seed", "-1"]),
        (["benchmark", "--seed", "-1"], ["seed", "-1"]),
    ],
    ids=["slepian-region", "slepian-lh", "benchmark-region", "config-region", "config-unknown-key",
         "benchmark-snr-db", "benchmark-realizations", "benchmark-lf",
         "benchmark-snr-db-range", "synth-noise-lf-negative", "synth-noise-lf-zero",
         "synth-noise-scale-nan", "synth-noise-scale-negative", "synth-noise-seed",
         "synth-noise-mixing-seed", "benchmark-seed"],
)
def test_bad_argument_exits_with_one_line(tmp_path, args, names):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lf=4\nlh=2\nregion=cap:abc\n")
    typo = tmp_path / "typo.cfg"  # a misspelt key must not fall back to a default
    typo.write_text("lf=4\nlh=2\nregion=cap:40\nsnr_db=5\nrealisations=1\nseed=7\n")
    out = tmp_path / "out"
    args = [a.format(cfg=cfg, typo=typo) for a in args]
    if args[0] == "synth-noise":
        args += ([] if "--seed" in args else ["--seed", "1"]) + ["--out", str(out)]
    else:
        args += ["--out", str(out)] if args[0] == "slepian" else ["--out-dir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    for name in names:
        assert name.format(typo=typo) in message
    assert not out.exists()


@pytest.mark.parametrize(
    "args, names",
    [
        (["render", "--coeffs", "{s}", "--rows", "1", "--out", "{out}"], ["rows"]),
        (["render", "--coeffs", "{s}", "--cols", "-3", "--out", "{out}"], ["columns"]),
        (["snr", "--signal", "{zero}", "--observed", "{s}"], ["nonzero"]),
        (["denoise", "--observed", "{s}", "--window", "{zero}", "--source", "{s}",
          "--out", "{out}"], ["window", "nonzero"]),
        (["denoise", "--observed", "{s}", "--window", "{s}", "--source", "{zero}",
          "--out", "{out}"], ["source", "nonzero"]),
        (["snr", "--signal", "{missing}", "--observed", "{s}"], ["{missing}"]),
        (["slepian", "--region", "cap:15", "--lh", "2", "--out", "{missing}/h.slm"],
         ["{missing}/h.slm"]),
    ],
    ids=["render-rows", "render-cols", "snr-zero-signal", "denoise-zero-window",
         "denoise-zero-source", "missing-input", "unwritable-out"],
)
def test_rejected_input_exits_with_one_line(tmp_path, args, names):
    from so3filter.io import write_coeffs
    from so3filter import SphericalCoeffs

    paths = {name: str(tmp_path / name) for name in ("s", "zero", "out", "missing")}
    write_coeffs(paths["s"], make_test_signal(2, 5))
    write_coeffs(paths["zero"], SphericalCoeffs.zeros(2))
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in args])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    for name in names:
        assert name.format(**paths) in message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s", "zero"]


def test_denoise_rejects_covariance_header_larger_than_its_file(tmp_path):
    from so3filter.io import write_coeffs

    s = make_test_signal(2, 5)
    for name in ("s", "f", "h"):
        write_coeffs(tmp_path / f"{name}.slm", s)
    cov = tmp_path / "big.cov"
    cov.write_text("cov v1 L=1000\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--observed", str(tmp_path / "f.slm"), "--window", str(tmp_path / "h.slm"),
              "--signal-cov", str(cov), "--out", str(tmp_path / "est.slm")])
    message = exc.value.code
    assert message == f"--signal-cov {cov} has bandlimit 1000, but --observed {tmp_path / 'f.slm'} has 2"
    assert not (tmp_path / "est.slm").exists()


@pytest.mark.parametrize("flag", ["--signal-cov", "--noise-cov"])
def test_denoise_checks_covariance_bandlimits_before_reading_rows(tmp_path, flag):
    # Both bodies are malformed; the headers alone must settle the mismatch,
    # even when the other file's header matches and it is read first.
    from so3filter.io import write_coeffs

    write_coeffs(tmp_path / "f.slm", make_test_signal(4, 1))
    write_coeffs(tmp_path / "h.slm", make_test_signal(2, 2))
    (tmp_path / "good.cov").write_text("cov v1 L=4\n1 abc\n")
    (tmp_path / "bad.cov").write_text("cov v1 L=3\n1 abc\n")
    covs = {"--signal-cov": "good.cov", "--noise-cov": "good.cov", flag: "bad.cov"}
    args = ["denoise", "--observed", str(tmp_path / "f.slm"), "--window", str(tmp_path / "h.slm"),
            "--out", str(tmp_path / "est.slm")]
    for name, file in covs.items():
        args += [name, str(tmp_path / file)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == (
        f"{flag} {tmp_path / 'bad.cov'} has bandlimit 3, but --observed {tmp_path / 'f.slm'} has 4"
    )
    assert not (tmp_path / "est.slm").exists()


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
