"""Command-line front end: throughput sweeps emitted as plot-ready CSV.

Subcommands: `analytic` (chain solve only), `simulate` (Monte Carlo, or both
engines side by side), `figure` (canned sweeps whose settings ship as config
files inside the package), and `selftest` (quick end-to-end sanity check).

Every flag can also be given in a config file of `key = value` lines (the
key is the long flag name without the dashes; any other key is a usage
error); explicit flags win over file values.  Config files may give comma lists for strategy, rho,
fr-over-fs-db and csi-mode, which expand to a cross product of rows.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from importlib import resources

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

_AXES = ("pss", "fs-db", "rho", "fr-over-fs-db")
_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig9csi")

_STRATEGY_BY_FLAG = {s.value: s for s in Strategy}
_CSI_BY_FLAG = {m.value: m for m in CsiMode}
_CONVENTION_BY_FLAG = {c.value: c for c in XorConvention}


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
    """Everything needed to produce one CSV: the grid and the engines."""

    strategies: list[Strategy]
    engines: str
    rho_values: list[float]
    ratio_values: list[float]
    direct_values: list[tuple[float, float]]  # (pss, fs_db) of the direct link
    csi_modes: list[CsiMode]
    n_slots: int
    seed: int
    convention: XorConvention

    def points(self) -> list[SweepPoint]:
        out = []
        for strategy in self.strategies:
            modes = self.csi_modes if strategy.reads_csi else [CsiMode.PREV_SLOT]
            for mode in modes:
                label = strategy.value
                if strategy.reads_csi and len(self.csi_modes) > 1:
                    label = f"{strategy.value}:{mode.value}"
                for rho in self.rho_values:
                    for ratio in self.ratio_values:
                        for pss, fs_db in self.direct_values:
                            fs = db_to_linear(fs_db)
                            fr_db = fs_db + ratio
                            psr = outage_probability(fs * db_to_linear(ratio))
                            out.append(
                                SweepPoint(
                                    strategy=strategy,
                                    csi_mode=mode,
                                    label=label,
                                    rho=rho,
                                    fs_db=fs_db,
                                    fr_db=fr_db,
                                    pss=pss,
                                    psr=psr,
                                )
                            )
        return out


def _j0(x: float) -> float:
    """Bessel J0(x) = (1/2pi) integral_0^2pi cos(x sin t) dt by the trapezoid
    rule.  The integrand is smooth and periodic, so the rule converges
    geometrically once the nodes resolve its oscillation: 64 + |x| of them
    keep it within 3.7e-15 of scipy.special.j0 on [0, 200)."""
    n = 64 + int(abs(x))
    return float(np.cos(x * np.sin(np.arange(n) * (2.0 * math.pi / n))).mean())


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
    points = spec.points()
    models = [JointChannelModel.symmetric(p.pss, p.psr, p.rho) for p in points]
    etas: list = [None] * len(points)
    sims: list = [None] * len(points)
    if spec.engines in ("analytic", "both"):
        for strategy in spec.strategies:
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


def _emit(rows: list[str], out_path: str | None) -> None:
    text = "\n".join(rows) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Flag / config-file handling
# ---------------------------------------------------------------------------


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _floats(text: str) -> list[float]:
    return [float(v) for v in _split_list(text)]


# Config keys (the long flag names) and how each value is read.  List-valued
# keys take comma lists; their flags give a single value.
_CONFIG_KEYS = {
    "strategy": _split_list,
    "pss": float,
    "fs-db": float,
    "fr-over-fs-db": _floats,
    "rho": _floats,
    "fm-tp": _floats,
    "sweep": str,
    "n-slots": int,
    "seed": int,
    "csi-mode": _split_list,
    "xor-convention": str,
    "engines": str,
}
_LIST_KEYS = ("fr-over-fs-db", "rho", "fm-tp", "csi-mode")


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    """Typed values of a file of `key = value` lines (# starts a comment).

    A malformed line, an unknown key or an unreadable file is a usage error.
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
        if key not in _CONFIG_KEYS:
            parser.error(f"{path}:{lineno}: unknown config key {key!r} "
                         f"(valid: {', '.join(_CONFIG_KEYS)})")
        values[key] = _CONFIG_KEYS[key](text)
    return values


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + k * step, 10) for k in range(n)]


def _build_spec(parser: argparse.ArgumentParser, values: dict) -> SweepSpec:
    """Validate merged flag/config values and assemble the sweep."""
    fail = parser.error
    raw_strategies = values.get("strategy")
    if not raw_strategies:
        fail("at least one --strategy is required")
    strategies = []
    for name in raw_strategies:
        if name not in _STRATEGY_BY_FLAG:
            fail(f"--strategy: unknown strategy {name!r} (valid: {', '.join(_STRATEGY_BY_FLAG)})")
        strat = _STRATEGY_BY_FLAG[name]
        if strat not in strategies:
            strategies.append(strat)

    engines = values.get("engines")
    if engines not in ("analytic", "simulate", "both"):
        fail(f"--engines must be analytic, simulate or both, got {engines!r}")

    rho_values = values.get("rho")
    fm_tp = values.get("fm-tp")
    if fm_tp is not None:
        if rho_values is not None:
            fail("--fm-tp conflicts with --rho; give one of them")
        rho_values = [_j0(2.0 * math.pi * f) for f in fm_tp]
    if rho_values is None:
        rho_values = [0.0]
    for rho in rho_values:
        if not 0.0 <= rho < 1.0:
            flag = "--fm-tp (via J0)" if fm_tp is not None else "--rho"
            fail(f"{flag} must give correlation in [0, 1), got {rho}")

    ratio_values = values.get("fr-over-fs-db")
    if ratio_values is None:
        ratio_values = [10.0]

    pss = values.get("pss")
    fs_db = values.get("fs-db")
    if pss is not None and fs_db is not None:
        fail("--pss and --fs-db are mutually exclusive")
    if pss is not None and not 0.0 < pss < 1.0:
        fail(f"--pss must be in (0, 1), got {pss}")
    direct_axis, direct = ("pss", [pss]) if pss is not None else ("fs-db", [fs_db])

    axis = None
    sweep = values.get("sweep")
    if sweep is not None:
        parts = sweep.split(":")
        if len(parts) != 4 or parts[0] not in _AXES:
            fail(
                f"--sweep must look like axis:start:stop:step with axis in "
                f"{{{', '.join(_AXES)}}}, got {sweep!r}"
            )
        axis = parts[0]
        try:
            start, stop, step = (float(p) for p in parts[1:])
        except ValueError:
            fail(f"--sweep: start/stop/step must be numbers, got {sweep!r}")
        if step <= 0 or stop < start:
            fail("--sweep needs step > 0 and stop >= start")
        swept = _sweep_values(start, stop, step)
        lo, hi = swept[0], swept[-1]
        if axis == "pss" and not (0.0 < lo and hi < 1.0):
            fail("--sweep: pss values must stay inside (0, 1)")
        if axis == "rho" and not (0.0 <= lo and hi < 1.0):
            fail("--sweep: rho values must stay inside [0, 1)")
        if axis in ("pss", "fs-db") and (pss is not None or fs_db is not None):
            fail(f"--sweep over {axis} conflicts with --pss/--fs-db")
        if axis == "rho" and values.get("rho") is not None:
            fail("--sweep over rho conflicts with --rho")
        if axis == "rho" and fm_tp is not None:
            fail("--sweep over rho conflicts with --fm-tp")
        if axis == "fr-over-fs-db" and values.get("fr-over-fs-db") is not None:
            fail("--sweep over fr-over-fs-db conflicts with --fr-over-fs-db")
        if axis == "rho":
            rho_values = swept
        elif axis == "fr-over-fs-db":
            ratio_values = swept
        else:
            direct_axis, direct = axis, swept

    if axis not in ("pss", "fs-db") and pss is None and fs_db is None:
        fail("one of --pss or --fs-db is required (or sweep that axis)")

    n_slots = values.get("n-slots", 1_000_000)
    if n_slots < 1:
        fail(f"--n-slots must be >= 1, got {n_slots}")
    seed = values.get("seed", 12345)
    if seed < 0:
        fail(f"--seed must be >= 0, got {seed}")

    csi_names = values.get("csi-mode") or ["prev"]
    csi_modes = []
    for name in csi_names:
        if name not in _CSI_BY_FLAG:
            fail(f"--csi-mode must be one of {', '.join(_CSI_BY_FLAG)}, got {name!r}")
        csi_modes.append(_CSI_BY_FLAG[name])

    convention_name = values.get("xor-convention", "table2")
    if convention_name not in _CONVENTION_BY_FLAG:
        fail(f"--xor-convention must be table2 or physical, got {convention_name!r}")

    if direct_axis == "pss":
        direct_values = [(p, linear_to_db(fading_margin_from_outage(p))) for p in direct]
    else:
        direct_values = [(outage_probability(db_to_linear(f)), f) for f in direct]

    return SweepSpec(
        strategies=strategies,
        engines=engines,
        rho_values=rho_values,
        ratio_values=ratio_values,
        direct_values=direct_values,
        csi_modes=csi_modes,
        n_slots=n_slots,
        seed=seed,
        convention=_CONVENTION_BY_FLAG[convention_name],
    )


def _merged_values(
    parser: argparse.ArgumentParser, args: argparse.Namespace, path: str | None
) -> dict:
    """Values of the config file at path, overridden by explicitly given flags."""
    values = _read_config(parser, path) if path else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is None:
            continue
        values[key] = [flag] if key in _LIST_KEYS else flag
        if key in ("pss", "fs-db"):  # a direct-link flag replaces the file's other one
            values.pop("fs-db" if key == "pss" else "pss", None)
    return values


def _add_sweep_flags(sub: argparse.ArgumentParser, default_engines: str) -> None:
    sub.add_argument("--strategy", action="append", metavar="NAME",
                     help=f"strategy, repeatable ({', '.join(_STRATEGY_BY_FLAG)})")
    direct = sub.add_mutually_exclusive_group()
    direct.add_argument("--pss", type=float, help="direct-link outage probability in (0, 1)")
    direct.add_argument("--fs-db", type=float, help="direct-link fading margin in dB")
    sub.add_argument("--fr-over-fs-db", type=float,
                     help="relay margin over direct margin in dB (default 10)")
    sub.add_argument("--rho", type=float, help="slot-to-slot channel correlation in [0, 1)")
    sub.add_argument("--fm-tp", type=float,
                     help="Doppler-packet product; correlation taken as J0(2*pi*fm*Tp)")
    sub.add_argument("--sweep", metavar="AXIS:START:STOP:STEP",
                     help=f"swept axis, one of {', '.join(_AXES)}")
    sub.add_argument("--n-slots", type=int, help="simulated slots per point (default 1000000)")
    sub.add_argument("--seed", type=int, help="simulation seed (default 12345)")
    sub.add_argument("--csi-mode", choices=sorted(_CSI_BY_FLAG),
                     help="CR feedback view the simulator uses (default prev); "
                          "eta_analytic is always the previous-slot chain")
    sub.add_argument("--xor-convention", choices=sorted(_CONVENTION_BY_FLAG),
                     help="xor delivery bookkeeping (default table2)")
    sub.add_argument("--engines", choices=("analytic", "simulate", "both"))
    sub.add_argument("--config", metavar="FILE", help="key=value file mirroring the flags")
    sub.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    sub.set_defaults(default_engines=default_engines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twarq",
        description="Two-way relay ARQ throughput: exact chain analysis and Monte Carlo sweeps.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    ana = subs.add_parser("analytic", help="steady-state chain solve")
    _add_sweep_flags(ana, "analytic")
    sim = subs.add_parser("simulate", help="seeded Monte Carlo")
    _add_sweep_flags(sim, "simulate")

    fig = subs.add_parser("figure", help="canned sweep with packaged settings")
    fig.add_argument("name", help=f"one of {', '.join(_FIGURES)}")
    fig.add_argument("--n-slots", type=int, help="override packaged slot count")
    fig.add_argument("--seed", type=int, help="override packaged seed")
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
    from .analysis import enumerate_substates, steady_state, transition_matrix
    from .channel import ge_transitions, stationary_link

    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    worst = 0.0
    for k in range(1, 20):
        p = k * 0.05
        ge = ge_transitions(p, 0.0)
        worst = max(worst, abs(ge.p_gb - p), abs(ge.p_bg - (1.0 - p)))
        for rho in (0.0, 0.5, 0.9, 0.99):
            pi_bad, _ = stationary_link(ge_transitions(p, rho))
            worst = max(worst, abs(pi_bad - p))
    report("channel-degeneracy", worst < 1e-9, f"worst deviation {worst:.2e}")

    sizes = {s: len(enumerate_substates(s)) for s in Strategy if s.cooperative}
    expected = {
        Strategy.RR: 136, Strategy.RR_NC: 136, Strategy.AR: 232,
        Strategy.AR_NC: 232, Strategy.CR: 184, Strategy.CR_NC: 176,
    }
    report("substate-counts", sizes == expected, f"{sizes}")

    model = JointChannelModel.symmetric(0.5, outage_probability(
        fading_margin_from_outage(0.5) * 10.0), 0.9)
    worst_res, worst_flow, worst_gap = 0.0, 0.0, 0.0
    for strat in (Strategy.RR_NC, Strategy.CR):
        space = enumerate_substates(strat)
        mat = transition_matrix(space, model)
        st = steady_state(mat)
        worst_res = max(worst_res, st.residual)
        t0 = st.pi[space.t0_slice].sum()
        t1 = st.pi[space.t1_slice].sum()
        worst_flow = max(worst_flow, abs(t0 - t1))
        worst_gap = max(worst_gap, abs(analytic_throughput(strat, model) - 2.0 * t0))
    report("steady-state-quality", worst_res <= 1e-10 and worst_flow <= 1e-10,
           f"residual {worst_res:.2e}, |pi_T0-pi_T1| {worst_flow:.2e}")
    report("renewal-vs-dense", worst_gap <= 1e-11, f"|eta renewal - eta dense| {worst_gap:.2e}")

    ok_sw = all(sw_arq_throughput(p) == 1.0 - p for p in (0.0, 0.25, 0.5, 0.9))
    report("sw-baseline", ok_sw)

    ok_cross = True
    detail = ""
    for strat, pss, ratio, rho in (
        (Strategy.RR_NC, 0.5, 10.0, 0.9),
        (Strategy.CR_NC, 0.3, 10.0, 0.9),
        (Strategy.AR, 0.3, 0.0, 0.0),
    ):
        m = JointChannelModel.symmetric(
            pss, outage_probability(fading_margin_from_outage(pss) * db_to_linear(ratio)), rho)
        eta = analytic_throughput(strat, m)
        stats = run(SimConfig(strategy=strat, model=m, n_slots=200_000, seed=2024))
        gap = abs(eta - stats.throughput_estimate)
        if gap > 4.0 * stats.std_error:
            ok_cross = False
            detail = f"{strat.value}: |{eta:.5f}-{stats.throughput_estimate:.5f}| > 4se"
    report("cross-engine", ok_cross, detail)

    perfect = JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0)
    eta_perfect = analytic_throughput(Strategy.RR_NC, perfect)
    stats = run(SimConfig(strategy=Strategy.RR_NC, model=perfect, n_slots=10_000, seed=7))
    report(
        "perfect-limit",
        eta_perfect == 1.0 and stats.throughput_estimate == 1.0 and stats.std_error == 0.0,
        f"analytic {eta_perfect}, sim {stats.throughput_estimate}, se {stats.std_error}",
    )

    return 0 if failures == 0 else 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd in ("analytic", "simulate"):
            values = _merged_values(parser, args, args.config)
            values.setdefault("engines", args.default_engines)
            spec = _build_spec(parser, values)
            _emit(execute(spec), args.out)
        elif args.cmd == "figure":
            spec = _figure_spec(parser, args)
            _emit(execute(spec), args.out)
        elif args.cmd == "selftest":
            return _selftest()
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
