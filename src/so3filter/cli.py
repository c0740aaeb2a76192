"""Command-line interface.

Subcommands: ``slepian`` (concentration window), ``synth-noise``,
``denoise``, ``benchmark``, ``render`` and ``snr``.  The benchmark reads an
optional ``key=value`` config file; every key can be overridden by a flag.
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import sys
from pathlib import Path

from . import io as sfio
from .filtering import SpectralCovariance
from .pipeline import (
    ExperimentConfig,
    NoiseModel,
    benchmark,
    build_signal_covariance,
    denoise,
    make_test_signal,
    render_map,
    snr,
    synth_noise,
)
from .slepian import PolarCap, Region, SphericalEllipse, slepian_window

logger = logging.getLogger("so3filter")

DESK_PRESET = {"lf": 16, "lh": 8, "region": "cap:15"}
FULL_PRESET = {"lf": 64, "lh": 20, "region": "ellipse:15,16"}
# Benchmark settings a config file may give; each is also a flag of that name.
CONFIG_KEYS = ("lf", "lh", "region", "snr_db", "realizations", "seed", "signal", "window", "out_dir")


def parse_region(text: str) -> Region:
    """Region spec: ``cap:<theta0_deg>`` or ``ellipse:<focus_deg>,<semi_major_deg>``."""
    kind, _, args = text.partition(":")
    try:
        if kind == "cap":
            return PolarCap(math.radians(float(args)))
        if kind == "ellipse":
            focus, semi = (float(v) for v in args.split(","))
            return SphericalEllipse(math.radians(focus), math.radians(semi))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad region spec {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown region kind {kind!r}")


def read_config(path) -> dict:
    """Plain ``key=value`` config file; blank lines and ``#`` comments ignored.

    A ``#`` starts a comment only at the start of a line or after
    whitespace, so ``out_dir=runs#1`` keeps its ``#``.

    Every key must be one of ``CONFIG_KEYS``, so a misspelt one is an error
    rather than a silently kept default.
    """
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: bad config line {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r} (known: {', '.join(CONFIG_KEYS)})")
        values[key] = val
    return values


def _parse(name: str, parse, text):
    """``parse(text)``; a malformed value for ``name`` exits with one line."""
    try:
        return parse(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise SystemExit(f"{name}: {exc}") from None


def _cmd_slepian(args) -> int:
    region = _parse("--region", parse_region, args.region)
    if args.lh < 1:
        raise SystemExit(f"--lh: window bandlimit must be positive, got {args.lh}")
    result = slepian_window(region, args.lh)
    sfio.write_coeffs(args.out, result.window())
    if args.eigenvalues:
        with open(args.eigenvalues, "w") as fh:
            fh.write("k,eigenvalue\n")
            for k, lam in enumerate(result.eigenvalues):
                fh.write(f"{k},{lam:.12g}\n")
    logger.info("window written to %s (leading eigenvalue %.6f)", args.out, result.eigenvalues[0])
    return 0


def _cmd_synth_noise(args) -> int:
    for flag, seed in (("--seed", args.seed), ("--mixing-seed", args.mixing_seed)):
        if seed < 0:
            raise SystemExit(f"{flag}: seed must be nonnegative, got {seed}")
    model = NoiseModel.random(args.lf, args.mixing_seed, args.scale)
    z = synth_noise(model, args.seed)
    sfio.write_coeffs(args.out, z)
    if args.cov_out:
        sfio.write_covariance(args.cov_out, model.covariance())
    return 0


def _check_bandlimit(flag: str, path, bandlimit: int, observed_path, observed) -> None:
    """Exit, naming both files, unless the file ``path`` given for ``flag``
    has the bandlimit of ``observed``."""
    if bandlimit != observed.bandlimit:
        raise SystemExit(
            f"{flag} {path} has bandlimit {bandlimit}, "
            f"but --observed {observed_path} has {observed.bandlimit}"
        )


def _cmd_snr(args) -> int:
    s = sfio.read_coeffs(args.signal)
    d = sfio.read_coeffs(args.observed)
    _check_bandlimit("--signal", args.signal, s.bandlimit, args.observed, d)
    print(f"{snr(d, s):.6f}")
    return 0


def _cmd_denoise(args) -> int:
    f = sfio.read_coeffs(args.observed)
    h = sfio.read_coeffs(args.window)
    s = sfio.read_coeffs(args.source) if args.source else None
    if s is not None:
        _check_bandlimit("--source", args.source, s.bandlimit, args.observed, f)
    # Both covariance headers are checked before any covariance row is read.
    for flag, path in (("--signal-cov", args.signal_cov), ("--noise-cov", args.noise_cov)):
        if path:
            _check_bandlimit(flag, path, sfio.covariance_bandlimit(path), args.observed, f)
    if args.signal_cov:
        cs = sfio.read_covariance(args.signal_cov)
    elif s is not None:
        cs = build_signal_covariance(s)
    else:
        raise SystemExit("denoise needs --signal-cov or --source")
    if args.noise_cov:
        cz = sfio.read_covariance(args.noise_cov)
    else:
        cz = SpectralCovariance.zeros(f.bandlimit)
    est = denoise(f, cs, cz, h)
    sfio.write_coeffs(args.out, est)
    if s is not None:
        logger.info("input SNR %.4f dB, output SNR %.4f dB", snr(f, s), snr(est, s))
    return 0


def _cmd_render(args) -> int:
    coeffs = sfio.read_coeffs(args.coeffs)
    paths = render_map(coeffs, args.rows, args.cols, args.out)
    for kind, path in paths.items():
        logger.info("%s raster: %s", kind, path)
    return 0


def _benchmark_config(args) -> tuple[ExperimentConfig, dict]:
    """The sweep's config and the merged settings it was built from.

    Presets, then the config file, then flags; the CLI alone reads the
    ``signal``, ``window`` and ``out_dir`` settings.
    """
    preset = FULL_PRESET if args.preset == "full" else DESK_PRESET
    values = dict(preset)
    values.update(
        {"snr_db": "-5,0,5,10", "realizations": "5", "seed": "12345", "out_dir": "."}
    )
    if args.config:
        values.update(read_config(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key)
        if val is not None:
            values[key] = str(val)
    cfg = ExperimentConfig(
        lf=_parse("lf", int, values["lf"]),
        lh=_parse("lh", int, values["lh"]),
        region=_parse("region", parse_region, values["region"]),
        snr_targets_db=_parse(
            "snr_db", lambda text: tuple(float(v) for v in text.split(",")), values["snr_db"]
        ),
        realizations=_parse("realizations", int, values["realizations"]),
        seed=_parse("seed", int, values["seed"]),
    )
    return cfg, values


def _cmd_benchmark(args) -> int:
    cfg, values = _benchmark_config(args)
    if args.preset == "full":
        logger.warning(
            "full-scale preset (lf=%d, lh=%d): expect about 5 minutes per denoise and "
            "1,100 MB of RAM (set-up and a denoise took 264 s and 314 s on a 2-core x86_64 machine)",
            cfg.lf, cfg.lh,
        )
    if values.get("signal"):
        s = sfio.read_coeffs(values["signal"])
    else:
        s = make_test_signal(cfg.lf, cfg.seed)
    if values.get("window"):
        h = sfio.read_coeffs(values["window"])
    else:
        h = slepian_window(cfg.region, cfg.lh).window()
    result = benchmark(cfg, s, h)
    out_dir = Path(values["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / "results.csv"
    summary_path = out_dir / "summary.csv"
    rows_path.write_text(result.rows_csv())
    summary_path.write_text(result.summary_csv())
    logger.info("wrote %s and %s", rows_path, summary_path)
    for target, mean_in, mean_out, std_out in result.summary:
        print(f"target {target:+.1f} dB: mean in {mean_in:.3f} dB -> mean out {mean_out:.3f} dB (std {std_out:.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so3filter",
        description="Joint rotation-group/spectral filtering of noisy sphere signals",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slepian", help="compute a concentration window")
    p.add_argument("--region", required=True, help="cap:<deg> or ellipse:<deg>,<deg>")
    p.add_argument("--lh", type=int, required=True, help="window bandlimit")
    p.add_argument("--out", required=True, help="output coefficient file")
    p.add_argument("--eigenvalues", help="optional CSV of the full spectrum")
    p.set_defaults(func=_cmd_slepian)

    p = sub.add_parser("synth-noise", help="draw one noise realisation")
    p.add_argument("--lf", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed for the noise draw")
    p.add_argument("--mixing-seed", type=int, default=0, help="seed for the mixing matrix")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--cov-out", help="optional covariance file of the model")
    p.set_defaults(func=_cmd_synth_noise)

    p = sub.add_parser("snr", help="SNR of an observation against a reference")
    p.add_argument("--signal", required=True, help="reference coefficient file")
    p.add_argument("--observed", required=True)
    p.set_defaults(func=_cmd_snr)

    p = sub.add_parser("denoise", help="estimate the source from an observation")
    p.add_argument("--observed", required=True)
    p.add_argument("--window", required=True, help="window coefficient file")
    p.add_argument("--source", help="source coefficients (builds the rank-one covariance)")
    p.add_argument("--signal-cov", help="source covariance file")
    p.add_argument("--noise-cov", help="noise covariance file (default: zero)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("benchmark", help="SNR-in vs SNR-out sweep")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--preset", choices=["desk", "full"], default="desk")
    p.add_argument("--lf", type=int)
    p.add_argument("--lh", type=int)
    p.add_argument("--region")
    p.add_argument("--snr-db", dest="snr_db", help="comma-separated targets")
    p.add_argument("--realizations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--signal", help="source coefficient file (default: synthetic)")
    p.add_argument("--window", help="window coefficient file (default: slepian)")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("render", help="raster a coefficient file")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=128)
    p.add_argument("--out", required=True, help="output basename")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Rejected input and unreadable or unwritable files end in one line;
        # file errors already name their path.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
