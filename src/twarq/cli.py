"""Command-line front end: throughput sweeps emitted as plot-ready CSV.

Subcommands: `analytic` (chain solve only), `simulate` (Monte Carlo, or both
engines side by side), `figure` (canned sweeps whose settings ship as config
files inside the package), and `selftest` (three end-to-end checks of the
installed engines).

Each sweep option is declared once, in `_OPTIONS`: its key is both the long
flag name and the key of a config file of `key = value` lines (any other key
is a usage error).  Explicit flags win over file values, and a flag for one
key of a pair (pss and fs-db, rho and fm-tp) replaces the file's value of
both.  Config files may give comma lists for strategy, rho, fm-tp,
fr-over-fs-db and csi-mode, which expand to a cross product of rows; on the
command line --strategy repeats instead.

Exit codes: 0 success, 2 usage error (a dB value too large for a float among
them), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from importlib import resources
from typing import TextIO

import numpy as np

from .analysis import analytic_many, analytic_throughput, sw_arq_throughput
from .channel import (
    JointChannelModel,
    db_to_linear,
    fading_margin_from_outage,
    linear_to_db,
    outage_probability,
)
from .exceptions import NumericalError
from .protocol import Strategy, XorConvention
from .simulate import CsiMode, SimConfig, run, run_many

CSV_HEADER = "strategy,rho,fs_db,fr_db,pss,psr,eta_analytic,eta_sim,sim_stderr,n_slots,seed"

_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig9csi")

# The keys that fix each sweep axis.  A sweep over an axis conflicts with each
# of them, and a flag for one of them replaces the file's values of all.
_FIXED_BY = {
    "pss": ("pss", "fs-db"),
    "fs-db": ("pss", "fs-db"),
    "rho": ("rho", "fm-tp"),
    "fr-over-fs-db": ("fr-over-fs-db",),
}


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved (strategy, channel parameters) row."""

    strategy: Strategy
    csi_mode: CsiMode
    label: str
    rho: float
    fs_db: float
    fr_db: float
    pss: float
    psr: float


@dataclass
class SweepSpec:
    """Everything needed to produce one CSV: the rows and the engines."""

    points: list[SweepPoint]
    engines: str
    n_slots: int
    seed: int
    convention: XorConvention


def _j0(x: float) -> float:
    """Bessel J0(x).  Below |x| = 200, (1/2pi) integral_0^2pi cos(x sin t) dt
    by the trapezoid rule: the integrand is smooth and periodic, so the rule
    converges geometrically once the nodes resolve its oscillation, and
    64 + |x| of them keep it within 3.7e-15 of scipy.special.j0.  From 200
    on, Hankel's asymptotic expansion (Abramowitz & Stegun 9.2.5, 9.2.9-10)
    to 20 terms, with cos(x - pi/4) formed as (cos x + sin x)/sqrt(2), so
    that x - pi/4 is never rounded."""
    if abs(x) < 200.0:
        n = 64 + int(abs(x))
        return float(np.cos(x * np.sin(np.arange(n) * (2.0 * math.pi / n))).mean())
    x = abs(x)
    p = q = 0.0  # P(0, x) and Q(0, x): the even and the odd terms
    term = 1.0
    for k in range(20):
        if k:
            term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        signed = -term if (k + 1) // 2 % 2 else term
        if k % 2:
            q += signed
        else:
            p += signed
    c, s = math.cos(x), math.sin(x)
    return (p * (c + s) + q * (c - s)) / math.sqrt(math.pi * x)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def execute(spec: SweepSpec) -> list[str]:
    """Compute all rows serially and emit them in deterministic order
    (strategy-major, axis-ascending).  The analytic column is one
    `analytic_many` call per strategy; the simulate column is one `run_many`
    call over all points, so rows at one channel point share its path."""
    points = spec.points
    models = [JointChannelModel.symmetric(p.pss, p.psr, p.rho) for p in points]
    etas: list = [None] * len(points)
    sims: list = [None] * len(points)
    if spec.engines in ("analytic", "both"):
        for strategy in dict.fromkeys(p.strategy for p in points):
            rows = [k for k, p in enumerate(points) if p.strategy is strategy]
            if strategy is Strategy.SW_ARQ:
                solved = [sw_arq_throughput(points[k].pss) for k in rows]
            else:
                solved = analytic_many(strategy, [models[k] for k in rows], spec.convention)
            for k, eta in zip(rows, solved):
                etas[k] = float(eta)
    if spec.engines in ("simulate", "both"):
        sims = run_many(
            SimConfig(p.strategy, m, spec.n_slots, spec.seed, p.csi_mode, spec.convention)
            for p, m in zip(points, models)
        )
    rows = [CSV_HEADER]
    for p, eta, st in zip(points, etas, sims):
        sim = (None,) * 4 if st is None else (
            st.throughput_estimate, st.std_error, spec.n_slots, spec.seed)
        fields = (p.rho, p.fs_db, p.fr_db, p.pss, p.psr, eta, *sim)
        rows.append(",".join([p.label, *map(_fmt, fields)]))
    return rows


@contextlib.contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """Where the CSV goes: stdout for no path or "-", else the file, opened
    (and so emptied) before any row is computed.  Failing to open, write or
    close the file is a usage error that names it."""
    if out_path is None or out_path == "-":
        yield sys.stdout
        return
    try:
        with open(out_path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from None


# ---------------------------------------------------------------------------
# Options: flags and config keys
# ---------------------------------------------------------------------------


def _one_of(choices) -> Callable[[str], object]:
    """Reader of a named choice: the enum member (or string) the name gives."""
    by_name = {getattr(c, "value", c): c for c in choices}

    def read(text: str):
        if text not in by_name:
            raise ValueError(f"unknown value {text!r} (valid: {', '.join(by_name)})")
        return by_name[text]

    return read


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {text!r}")
    return x


def _read_sweep(text: str) -> tuple[str, list[float]]:
    """AXIS:START:STOP:STEP as the axis and its values, both ends included."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in _FIXED_BY:
        raise ValueError(f"expected AXIS:START:STOP:STEP with AXIS one of "
                         f"{', '.join(_FIXED_BY)}, got {text!r}")
    axis, (start, stop, step) = parts[0], map(_finite, parts[1:])
    if not (step > 0 and stop >= start):
        raise ValueError("needs step > 0 and stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = [round(start + k * step, 10) for k in range(n)]
    if axis == "pss" and not (0.0 < values[0] and values[-1] < 1.0):
        raise ValueError("pss values must stay inside (0, 1)")
    if axis == "rho" and not (0.0 <= values[0] and values[-1] < 1.0):
        raise ValueError("rho values must stay inside [0, 1)")
    return axis, values


@dataclass(frozen=True)
class _Option:
    """One sweep option: `--key` on the command line, `key = ...` in a file."""

    key: str
    read: Callable[[str], object]  # one value from its text
    listed: bool  # a config file may give a comma list of values
    help: str


_OPTIONS = (
    _Option("strategy", _one_of(Strategy), True,
            f"strategy, repeatable ({', '.join(s.value for s in Strategy)})"),
    _Option("pss", _finite, False, "direct-link outage probability in (0, 1)"),
    _Option("fs-db", _finite, False, "direct-link fading margin in dB"),
    _Option("fr-over-fs-db", _finite, True, "relay margin over direct margin in dB (default 10)"),
    _Option("rho", _finite, True, "slot-to-slot channel correlation in [0, 1)"),
    _Option("fm-tp", _finite, True,
            "Doppler-packet product; correlation taken as J0(2*pi*fm*Tp)"),
    _Option("sweep", _read_sweep, False,
            f"swept axis as AXIS:START:STOP:STEP, AXIS one of {', '.join(_FIXED_BY)}"),
    _Option("n-slots", int, False, "simulated slots per point (default 1000000)"),
    _Option("seed", int, False, "simulation seed (default 12345)"),
    _Option("csi-mode", _one_of(CsiMode), True,
            "CR feedback view the simulator uses: prev (default), last-known or genie; "
            "eta_analytic is always the previous-slot chain"),
    _Option("xor-convention", _one_of(XorConvention), False,
            "xor delivery bookkeeping: table2 (default) or physical"),
    _Option("engines", _one_of(("analytic", "simulate", "both")), False,
            "analytic, simulate or both (default: the subcommand)"),
)
_OPTION_BY_KEY = {opt.key: opt for opt in _OPTIONS}


def _add_flags(sub: argparse.ArgumentParser, options=_OPTIONS) -> None:
    for opt in options:
        sub.add_argument(f"--{opt.key}", help=opt.help,
                         action="append" if opt.key == "strategy" else "store")


def _value(parser: argparse.ArgumentParser, where: str, opt: _Option, texts: list[str]):
    """The option's value read from its texts: a list if the option is listed."""
    try:
        values = [opt.read(text) for text in texts]
    except ValueError as exc:
        parser.error(f"{where}: {exc}")
    return values if opt.listed else values[0]


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    """Typed values of a file of `key = value` lines (# starts a comment).

    A malformed line or value, an unknown key or an unreadable file is a
    usage error.
    """
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            parser.error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _OPTION_BY_KEY:
            parser.error(f"{path}:{lineno}: unknown config key {key!r} "
                         f"(valid: {', '.join(_OPTION_BY_KEY)})")
        opt = _OPTION_BY_KEY[key]
        texts = [p.strip() for p in text.split(",") if p.strip()] if opt.listed else [text]
        values[key] = _value(parser, f"{path}:{lineno}: {key}", opt, texts)
    return values


def _merged_values(
    parser: argparse.ArgumentParser, args: argparse.Namespace, path: str | None
) -> dict:
    """Values of the config file at path, overridden by explicitly given flags."""
    flags = {}
    for opt in _OPTIONS:
        given = getattr(args, opt.key.replace("-", "_"), None)
        if given is not None:
            texts = given if isinstance(given, list) else [given]
            flags[opt.key] = _value(parser, f"--{opt.key}", opt, texts)
    values = _read_config(parser, path) if path else {}
    for fixed in _FIXED_BY.values():
        if not flags.keys().isdisjoint(fixed):
            for key in fixed:
                values.pop(key, None)
    return {**values, **flags}


def _build_spec(parser: argparse.ArgumentParser, values: dict) -> SweepSpec:
    """Validate merged flag/config values and assemble the sweep's rows."""
    fail = parser.error
    strategies = list(dict.fromkeys(values.get("strategy") or ()))
    if not strategies:
        fail("at least one --strategy is required")

    fm_tp = values.get("fm-tp")
    if fm_tp is not None and "rho" in values:
        fail("--fm-tp conflicts with --rho; give one of them")
    rho_values = values.get("rho", [0.0])
    if fm_tp is not None:
        rho_values = [_j0(2.0 * math.pi * f) for f in fm_tp]
    for rho in rho_values:
        if not 0.0 <= rho < 1.0:
            flag = "--fm-tp (via J0)" if fm_tp is not None else "--rho"
            fail(f"{flag} must give correlation in [0, 1), got {rho}")
    ratio_values = values.get("fr-over-fs-db", [10.0])

    pss = values.get("pss")
    fs_db = values.get("fs-db")
    if pss is not None and fs_db is not None:
        fail("--pss and --fs-db are mutually exclusive")
    if pss is not None and not (0.0 < pss < 1.0 and math.isfinite(fading_margin_from_outage(pss))):
        fail(f"--pss must be in (0, 1) with a finite fading margin, got {pss}")
    direct_axis, direct = ("pss", [pss]) if pss is not None else ("fs-db", [fs_db])

    axis, swept = values.get("sweep", (None, None))
    for key in _FIXED_BY.get(axis, ()):
        if key in values:
            fail(f"--sweep over {axis} conflicts with --{key}")
    if axis == "rho":
        rho_values = swept
    elif axis == "fr-over-fs-db":
        ratio_values = swept
    elif axis is not None:
        direct_axis, direct = axis, swept
    if direct == [None]:  # neither given nor swept
        fail("one of --pss or --fs-db is required (or sweep that axis)")

    n_slots = values.get("n-slots", 1_000_000)
    if n_slots < 1:
        fail(f"--n-slots must be >= 1, got {n_slots}")
    seed = values.get("seed", 12345)
    if seed < 0:
        fail(f"--seed must be >= 0, got {seed}")
    csi_modes = values.get("csi-mode") or [CsiMode.PREV_SLOT]

    if direct_axis == "pss":
        direct = [(p, linear_to_db(fading_margin_from_outage(p))) for p in direct]
    else:
        direct = [(outage_probability(db_to_linear(f)), f) for f in direct]
    points = []
    for strategy in strategies:
        for mode in csi_modes if strategy.reads_csi else [CsiMode.PREV_SLOT]:
            label = strategy.value
            if strategy.reads_csi and len(csi_modes) > 1:
                label = f"{strategy.value}:{mode.value}"
            for rho, ratio, (p_ss, f_db) in itertools.product(rho_values, ratio_values, direct):
                psr = outage_probability(db_to_linear(f_db) * db_to_linear(ratio))
                points.append(SweepPoint(strategy, mode, label, rho, f_db, f_db + ratio, p_ss, psr))

    return SweepSpec(points, values["engines"], n_slots, seed,
                     values.get("xor-convention", XorConvention.SAME_INDEX))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twarq",
        description="Two-way relay ARQ throughput: exact chain analysis and Monte Carlo sweeps.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)
    for cmd, help_text in (("analytic", "steady-state chain solve"),
                           ("simulate", "seeded Monte Carlo")):
        sub = subs.add_parser(cmd, help=help_text)
        _add_flags(sub)
        sub.add_argument("--config", metavar="FILE", help="key=value file mirroring the flags")
        sub.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")

    fig = subs.add_parser("figure", help="canned sweep with packaged settings")
    fig.add_argument("name", help=f"one of {', '.join(_FIGURES)}")
    _add_flags(fig, (_OPTION_BY_KEY["n-slots"], _OPTION_BY_KEY["seed"]))
    fig.add_argument("--out", metavar="FILE")

    subs.add_parser("selftest", help="quick built-in verification")
    return parser


def _figure_spec(parser: argparse.ArgumentParser, args: argparse.Namespace) -> SweepSpec:
    if args.name not in _FIGURES:
        parser.error(f"unknown figure {args.name!r}; valid names: {', '.join(_FIGURES)}")
    cfg_file = resources.files("twarq").joinpath("figures", f"{args.name}.cfg")
    with resources.as_file(cfg_file) as path:
        values = _merged_values(parser, args, str(path))
    values.setdefault("engines", "both")
    return _build_spec(parser, values)


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def _selftest() -> int:
    """The installed engines end to end: the renewal solve against the dense
    one, the analytic engine against simulation, and the perfect channel.
    The checks of the channel, the chain sizes and the solve's residual are
    unit tests of the test suite."""
    from .analysis import enumerate_substates, steady_state, throughput, transition_matrix

    checks = {}  # name -> (passed, detail)
    model = JointChannelModel.symmetric(0.5, outage_probability(
        fading_margin_from_outage(0.5) * 10.0), 0.9)
    worst_gap = 0.0
    for strat in (Strategy.RR_NC, Strategy.CR):
        space = enumerate_substates(strat)
        dense = throughput(space, steady_state(transition_matrix(space, model)))
        worst_gap = max(worst_gap, abs(analytic_throughput(strat, model) - dense))
    checks["renewal-vs-dense"] = (worst_gap <= 1e-11,
                                  f"|eta renewal - eta dense| {worst_gap:.2e}")

    misses = []
    for strat, pss, ratio, rho in (
        (Strategy.RR_NC, 0.5, 10.0, 0.9),
        (Strategy.CR_NC, 0.3, 10.0, 0.9),
        (Strategy.AR, 0.3, 0.0, 0.0),
    ):
        m = JointChannelModel.symmetric(
            pss, outage_probability(fading_margin_from_outage(pss) * db_to_linear(ratio)), rho)
        eta = analytic_throughput(strat, m)
        stats = run(SimConfig(strategy=strat, model=m, n_slots=200_000, seed=2024))
        if abs(eta - stats.throughput_estimate) > 4.0 * stats.std_error:
            misses.append(f"{strat.value}: |{eta:.5f}-{stats.throughput_estimate:.5f}| > 4se")
    checks["cross-engine"] = (not misses, "; ".join(misses))

    perfect = JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0)
    eta_perfect = analytic_throughput(Strategy.RR_NC, perfect)
    stats = run(SimConfig(strategy=Strategy.RR_NC, model=perfect, n_slots=10_000, seed=7))
    checks["perfect-limit"] = (
        eta_perfect == 1.0 and stats.throughput_estimate == 1.0 and stats.std_error == 0.0,
        f"analytic {eta_perfect}, sim {stats.throughput_estimate}, se {stats.std_error}",
    )

    for name, (ok, detail) in checks.items():
        print(f"PASS {name}" if ok else f"FAIL {name}: {detail}")
    return 0 if all(ok for ok, _ in checks.values()) else 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "selftest":
            return _selftest()
        if args.cmd == "figure":
            spec = _figure_spec(parser, args)
        else:
            values = _merged_values(parser, args, args.config)
            values.setdefault("engines", args.cmd)
            spec = _build_spec(parser, values)
        with _output(args.out) as out:
            out.write("\n".join(execute(spec)) + "\n")
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
