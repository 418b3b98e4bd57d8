"""The two benchmark workloads, built from a seed as lists of `twarq` CLI calls.

A workload is a *round*: a fixed list of CLI calls that the timed loop
repeats whole, so every run attempts the same operations in the same
proportions.  One operation is one requested CSV row.  The seed only moves
the inputs (direct-margin or outage offsets, the outage of the long
simulations, the simulation seed); it never changes how many rows a call asks
for, and never touches the points that fail today.

Only the documented CLI surface is used: subcommand flags and the CSV
schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ALL_STRATEGIES = ("sw-arq", "rr", "rr-nc", "ar", "ar-nc", "cr", "cr-nc")
WORKLOADS = ("analytic", "sim-long")

SIM_LONG_SLOTS = 2_000_000
WARMUP_SLOTS = 1_000


@dataclass(frozen=True)
class Call:
    """One `twarq` invocation and what its output must look like."""

    argv: tuple[str, ...]
    rows: int  # rows the call asks for (the operations it attempts)
    labels: frozenset[str]  # allowed values of the strategy column
    engines: str  # analytic | simulate | both
    csi: str = "prev"  # CSI view of CR rows
    n_slots: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class SimPoint:
    """One simulated configuration, for the slot-by-slot replay check."""

    strategy: str
    csi: str
    pss: float
    ratio_db: float
    rho: float
    seed: int


@dataclass(frozen=True)
class ProbePoint:
    """The point the traced run's probes use, by direct outage or direct margin."""

    strategies: tuple[str, ...]
    ratio_db: float
    rho: float
    pss: float | None = None
    fs_db: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple[Call, ...]
    warmup: tuple[Call, ...]
    probe: ProbePoint
    replay: tuple[SimPoint, ...] = field(default=())


def _strategy_flags(names) -> list[str]:
    out = []
    for name in names:
        out += ["--strategy", name]
    return out


def _num(x: float) -> str:
    return repr(round(x, 6))


def _analytic_call(names, rows_per_strategy: int, *flags: str) -> Call:
    return Call(
        argv=("analytic", *_strategy_flags(names), *flags),
        rows=len(names) * rows_per_strategy,
        labels=frozenset(names),
        engines="analytic",
    )


def _simulate_call(names, engines, csi, pss, rho, n_slots, seed) -> Call:
    argv = ["simulate", *_strategy_flags(names), "--pss", _num(pss), "--rho", _num(rho),
            "--fr-over-fs-db", "10", "--n-slots", str(n_slots), "--seed", str(seed),
            "--engines", engines]
    if csi != "prev":
        argv += ["--csi-mode", csi]
    return Call(tuple(argv), len(names), frozenset(names), engines, csi, n_slots, seed)


def _grid_calls(shift: float) -> list[Call]:
    """The fig7 and fig8 grids, every `fs-db` shifted by `shift` dB."""
    fig7 = _analytic_call(ALL_STRATEGIES, 26, "--rho", "0.999", "--fr-over-fs-db", "0",
                          "--sweep", f"fs-db:{_num(-5 + shift)}:{_num(20 + shift)}:1")
    fig8 = [
        _analytic_call(ALL_STRATEGIES, 34, "--fs-db", _num(shift), "--fr-over-fs-db", ratio,
                       "--sweep", "rho:0:0.99:0.03")
        for ratio in ("0", "10")
    ]
    return [fig7, *fig8]


# rho = 1 - 1e-9 single points; pss 0.7 and 0.9 stall in the Marcum series today.
QUASI_STATIC_EDGE = ("0.3", "0.5", "0.7", "0.9")


def _quasi_static_calls(start: float) -> list[Call]:
    """All strategies near rho = 1: pss sweeps at 1-1e-7 and 1-1e-8 from
    `start`, then fixed points at 1-1e-9."""
    sweep = f"pss:{_num(start)}:{_num(start + 0.8)}:0.2"
    calls = [
        _analytic_call(ALL_STRATEGIES, 5, "--rho", rho, "--sweep", sweep)
        for rho in ("0.9999999", "0.99999999")
    ]
    calls += [
        _analytic_call(ALL_STRATEGIES, 1, "--rho", "0.999999999", "--pss", pss)
        for pss in QUASI_STATIC_EDGE
    ]
    return calls


def analytic(seed: int) -> Workload:
    """Analytic engine only: the fig7/fig8 grids, then the quasi-static points."""
    rng = random.Random(seed)
    shift = round(rng.uniform(0.0, 0.5), 3)  # dB
    start = round(0.1 + rng.uniform(0.0, 0.05), 4)
    warmup = (
        _analytic_call(ALL_STRATEGIES, 1, "--rho", "0.999", "--fr-over-fs-db", "0",
                       "--fs-db", _num(-5 + shift)),
        _analytic_call(ALL_STRATEGIES, 1, "--rho", "0.9999999", "--pss", _num(start)),
    )
    return Workload("analytic", (*_grid_calls(shift), *_quasi_static_calls(start)), warmup,
                    ProbePoint(ALL_STRATEGIES, 0.0, 0.999, fs_db=round(-5 + shift, 6)))


def sim_long(seed: int) -> Workload:
    """Long both-engine simulations: three NC strategies under `prev`, cr-nc under `last-known`."""
    rng = random.Random(seed)
    pss = round(rng.uniform(0.3, 0.5), 3)
    rho = 0.99
    sim_seed = rng.randrange(1, 2**31)
    prev = ("rr-nc", "ar-nc", "cr-nc")
    calls = (
        _simulate_call(prev, "both", "prev", pss, rho, SIM_LONG_SLOTS, sim_seed),
        _simulate_call(("cr-nc",), "both", "last-known", pss, rho, SIM_LONG_SLOTS, sim_seed),
    )
    warmup = (
        _simulate_call(prev, "both", "prev", pss, rho, WARMUP_SLOTS, sim_seed),
        _simulate_call(("cr-nc",), "both", "last-known", pss, rho, WARMUP_SLOTS, sim_seed),
    )
    replay = tuple(SimPoint(s, "prev", pss, 10.0, rho, sim_seed) for s in prev)
    replay += (SimPoint("cr-nc", "last-known", pss, 10.0, rho, sim_seed),)
    return Workload("sim-long", calls, warmup, ProbePoint(prev, 10.0, rho, pss=pss), replay)


def build(name: str, seed: int) -> Workload:
    return {"analytic": analytic, "sim-long": sim_long}[name](seed)
