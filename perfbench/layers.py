"""Traced run: per-layer metrics from the benchmark's own calls into twarq.

In one fresh process, in this order:

1. cold probes: the first `steady_state` calls of the process and the first
   `run` of each strategy (its table build), before anything warms them;
2. one round of the workload through `twarq.cli.main`, one span per call;
   the successful calls are the untraced wall time `cli.busy_over_wall` is
   taken against;
3. right after each successful call, a serial replay of its CSV rows
   through the public layer functions, one span around each call;
4. probes for what the replay cannot see: the protocol step, path sampling,
   a short `run`, allocation per simulated slot, and any CSI view the round
   does not simulate.

Spans (name, start, end, parent) stay in memory and are written to a JSON
file at the end.  `trace.overhead_s` is what the spans themselves cost: the
number of spans recorded times the measured cost of one empty span.  A
span's layer is its name up to the first dot.  Public functions are looked
up by name; when a later version of the program no longer has one (or its
call no longer fits), the metrics that need it are reported missing on
stderr and left out, and the run goes on.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import checks
import worker
from workloads import ALL_STRATEGIES

LAYERS = ("channel", "protocol", "analysis", "simulate", "cli")
PROBE_SLOTS = 200_000
SHORT_SLOTS = 1_000
COLD_SOLVES = 3
ANALYTIC_TOL = 1e-8  # replay from 12-digit CSV inputs against the CLI's value

SIM_API = ("symmetric", "Strategy", "SimConfig", "CsiMode", "run")
API = {
    "symmetric": "twarq.channel:JointChannelModel.symmetric",
    "sample_link_path": "twarq.channel:sample_link_path",
    "Strategy": "twarq.protocol:Strategy",
    "ArqState": "twarq.protocol:ArqState",
    "Phase": "twarq.protocol:Phase",
    "PolicyContext": "twarq.protocol:PolicyContext",
    "policy_action": "twarq.protocol:policy_action",
    "apply_slot": "twarq.protocol:apply_slot",
    "enumerate_substates": "twarq.analysis:enumerate_substates",
    "transition_matrix": "twarq.analysis:transition_matrix",
    "steady_state": "twarq.analysis:steady_state",
    "throughput": "twarq.analysis:throughput",
    "sw_arq_throughput": "twarq.analysis:sw_arq_throughput",
    "SimConfig": "twarq.simulate:SimConfig",
    "CsiMode": "twarq.simulate:CsiMode",
    "run": "twarq.simulate:run",
    "main": "twarq.cli:main",
}


def resolve() -> dict:
    api = {}
    for key, path in API.items():
        module, _, attr = path.partition(":")
        try:
            obj = importlib.import_module(module)
        except ImportError:
            obj = None
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        api[key] = obj
    return api


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus what their children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in self.spans], fh)


def span_cost(reps: int = 9, n: int = 5_000) -> float:
    """Seconds one recorded span adds to the code it wraps.

    Times `n` empty spans in a scratch tracer against `n` bare loop turns,
    `reps` times, and takes the median difference per span.
    """
    costs = []
    for _ in range(reps):
        scratch = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with scratch.span("x"):
                pass
        t1 = time.perf_counter()
        for _ in range(n):
            pass
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / n)
    return statistics.median(costs)


class Probe:
    """Runs metric groups, turning a vanished public function into missing metrics."""

    def __init__(self, api: dict) -> None:
        self.api = api
        self.metrics: dict[str, dict] = {}
        self.missing: list[str] = []
        self.problems: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def group(self, names: tuple[str, ...], needs: tuple[str, ...], fn) -> None:
        gone = [n for n in needs if self.api[n] is None]
        reason = f"no public {', '.join(API[n] for n in gone)}" if gone else None
        if not gone:
            try:
                fn()
            except (AttributeError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        for name in names:
            if name not in self.metrics:
                self.missing.append(name)
                print(f"perfbench: layer metric {name} missing ({reason or 'not measured'})",
                      file=sys.stderr)


def _model(api, point):
    pss, psr = worker.link_outages(point.ratio_db, point.pss, point.fs_db)
    return api["symmetric"](pss, psr, point.rho)


def _sim(api, strategy: str, model, n: int, seed: int, csi: str = "prev"):
    cfg = api["SimConfig"](api["Strategy"](strategy), model, n, seed,
                           csi_mode=api["CsiMode"](csi))
    return api["run"](cfg)


def traced(workload, spans_path: str | None) -> dict:
    api = resolve()
    tracer = Tracer()
    probe = Probe(api)
    strategies = workload.probe.strategies
    cooperative = [s for s in strategies if s != "sw-arq"]
    model = _model(api, workload.probe) if api["symmetric"] else None

    # 1. Cold probes, first in the process.
    def cold_solve():
        mats = []
        for name in (cooperative * COLD_SOLVES)[:COLD_SOLVES]:
            space = api["enumerate_substates"](api["Strategy"](name))
            mats.append(api["transition_matrix"](space, model))
        for mat in mats:
            with tracer.span("analysis.steady_state.cold"):
                api["steady_state"](mat)
        probe.put("analysis.solve_cold_ms",
                  1e3 * statistics.mean(tracer.durations("analysis.steady_state.cold")), "ms")

    probe.group(("analysis.solve_cold_ms",),
                ("symmetric", "Strategy", "enumerate_substates", "transition_matrix",
                 "steady_state"), cold_solve)

    def first_run():
        for name in strategies:
            with tracer.span("simulate.run.first"):
                _sim(api, name, model, SHORT_SLOTS, 1)
            with tracer.span("simulate.run.second"):
                _sim(api, name, model, SHORT_SLOTS, 1)
        first = tracer.durations("simulate.run.first")
        second = tracer.durations("simulate.run.second")
        extra = [a - b for a, b in zip(first, second)]
        probe.put("simulate.first_run_ms", 1e3 * statistics.mean(extra), "ms")

    probe.group(("simulate.first_run_ms",),
                SIM_API, first_run)

    # 2 and 3. One round through the CLI, each call followed by the replay
    # of its rows, so machine drift between the two passes stays small.
    results, paths = _round(api, tracer, probe, workload)
    tally, problems, _ = worker.check_outputs(workload, results)
    problems += worker.check_replay(workload) + probe.problems

    # 4. Probes.
    _probes(api, tracer, probe, workload, model, paths)

    probe.put("trace.overhead_s", len(tracer.spans) * span_cost(), "s")
    selfs = tracer.self_times()
    for layer in LAYERS:
        probe.put(f"{layer}.self_s", selfs.get(layer, 0.0), "s")
    if spans_path:
        tracer.dump(spans_path)
    return {"attempted": tally["attempted"], "failed": tally["failed"],
            "problems": problems, "metrics": probe.metrics, "missing": probe.missing}


ANALYTIC_API = ("enumerate_substates", "transition_matrix", "steady_state", "throughput",
                "sw_arq_throughput")
ENGINE_SPANS = (
    "channel.JointChannelModel.symmetric",
    "analysis.sw_arq_throughput",
    "analysis.enumerate_substates",
    "analysis.transition_matrix",
    "analysis.steady_state",
    "analysis.throughput",
    "simulate.run",
)


def _round(api, tracer, probe, workload) -> tuple[list, set]:
    """Run the workload's round through `cli.main`, replaying each successful
    call's CSV rows serially through the public functions right after it.

    Returns the CLI results and the distinct simulated channel configurations.
    """
    with_analytic = all(api[n] is not None for n in ANALYTIC_API)
    sim_api = all(api[n] is not None for n in SIM_API)
    states, sim, paths = [], {}, set()
    results = []
    cli_s = 0.0
    broken = None if sim_api else "no public " + ", ".join(
        API[n] for n in SIM_API if api[n] is None)

    def replay(call, row) -> None:
        label, csi = row["strategy"], call.csi
        with tracer.span("bench.row"):
            with tracer.span("channel.JointChannelModel.symmetric"):
                model = api["symmetric"](float(row["pss"]), float(row["psr"]), float(row["rho"]))
            if row["eta_analytic"] and with_analytic:
                eta = _analytic(api, tracer, states, label, model, float(row["pss"]))
                if abs(eta - float(row["eta_analytic"])) > ANALYTIC_TOL:
                    probe.problems.append(f"replay of {label} at pss={row['pss']} "
                                          f"rho={row['rho']} gives {eta!r}, the CLI "
                                          f"{row['eta_analytic']}")
            if row["eta_sim"]:
                with tracer.span("simulate.run"):
                    _sim(api, label, model, call.n_slots, call.seed, csi)
                mode = csi if label in ("cr", "cr-nc") else "prev"
                spent, slots = sim.get(mode, (0.0, 0))
                sim[mode] = (spent + tracer.durations("simulate.run")[-1], slots + call.n_slots)
                paths.add((row["pss"], row["psr"], row["rho"], call.n_slots, call.seed))

    for call in workload.round:
        with tracer.span("cli.main"):
            results.append((call, *worker.cli_call(api["main"], call)))
        code, text = results[-1][1], results[-1][2]
        if code != 0 or broken:
            continue  # a failed call has no rows to replay
        cli_s += tracer.durations("cli.main")[-1]
        try:
            for row in checks.parse(call, text)[0]:
                replay(call, row)
        except (AttributeError, TypeError) as exc:
            broken = f"{type(exc).__name__}: {exc}"

    names = ("channel.model_ms", "analysis.states", "analysis.assembly_ms", "analysis.solve_ms",
             "cli.busy_over_wall")

    def metrics():
        if broken:
            raise AttributeError(broken)
        # The mean, not the median: the few rows near rho = 1 carry the cost.
        probe.put("channel.model_ms",
                  1e3 * statistics.mean(tracer.durations("channel.JointChannelModel.symmetric")),
                  "ms")
        for mode, (spent, slots) in sim.items():
            probe.put(f"simulate.run_ns_per_slot.{mode}", 1e9 * spent / slots, "ns/slot")
        if not with_analytic:
            return  # the analysis metrics and the busy share need every engine call
        probe.put("analysis.states", statistics.mean(states), "count")
        probe.put("analysis.assembly_ms",
                  1e3 * statistics.median(tracer.durations("analysis.transition_matrix")), "ms")
        probe.put("analysis.solve_ms",
                  1e3 * statistics.median(tracer.durations("analysis.steady_state")), "ms")
        busy = sum(sum(tracer.durations(name)) for name in ENGINE_SPANS)
        probe.put("cli.busy_over_wall", busy / cli_s, "ratio")

    probe.group(names, (), metrics)
    return results, paths


def _analytic(api, tracer, states, label, model, pss) -> float:
    if label == "sw-arq":
        with tracer.span("analysis.sw_arq_throughput"):
            return api["sw_arq_throughput"](pss)
    with tracer.span("analysis.enumerate_substates"):
        space = api["enumerate_substates"](api["Strategy"](label))
    with tracer.span("analysis.transition_matrix"):
        mat = api["transition_matrix"](space, model)
    with tracer.span("analysis.steady_state"):
        steady = api["steady_state"](mat)
    with tracer.span("analysis.throughput"):
        eta = api["throughput"](space, steady)
    states.append(len(space))
    return eta


def _probes(api, tracer, probe, workload, model, paths: set) -> None:
    strategies = workload.probe.strategies

    def path():
        configs = sorted(paths) or [None]
        slots = 0
        for cfg in configs:
            if cfg is None:
                links, n, seed = (model.s1r, model.s2r, model.s1s2), PROBE_SLOTS, 1
            else:
                pss, psr, rho, n, seed = cfg
                m = api["symmetric"](float(pss), float(psr), float(rho))
                links = (m.s1r, m.s2r, m.s1s2)
            children = np.random.SeedSequence(seed).spawn(4)
            with tracer.span("channel.sample_link_path"):
                for ge, child in zip(links, children):
                    api["sample_link_path"](ge, n, np.random.Generator(np.random.PCG64(child)))
            slots += n
        total = sum(tracer.durations("channel.sample_link_path"))
        probe.put("channel.path_ns_per_slot", 1e9 * total / slots, "ns/slot")

    probe.group(("channel.path_ns_per_slot",), ("symmetric", "sample_link_path"), path)

    def views():
        for mode in ("prev", "last-known", "genie"):
            name = f"simulate.run_ns_per_slot.{mode}"
            if name not in probe.metrics:
                with tracer.span("simulate.run"):
                    _sim(api, "cr-nc", model, PROBE_SLOTS, 1, mode)
                spent = tracer.durations("simulate.run")[-1]
                probe.put(name, 1e9 * spent / PROBE_SLOTS, "ns/slot")

    probe.group(tuple(f"simulate.run_ns_per_slot.{m}" for m in ("prev", "last-known", "genie")),
                SIM_API, views)

    def fixed():
        for _ in range(5):
            for name in strategies:
                with tracer.span("simulate.run.short"):
                    _sim(api, name, model, SHORT_SLOTS, 2)
        probe.put("simulate.fixed_ms",
                  1e3 * statistics.median(tracer.durations("simulate.run.short")), "ms")

    probe.group(("simulate.fixed_ms",), SIM_API,
                fixed)

    def alloc():
        name = next(s for s in strategies if s != "sw-arq")
        tracemalloc.start()
        try:
            with tracer.span("simulate.run.tracemalloc"):
                _sim(api, name, model, PROBE_SLOTS, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        probe.put("simulate.alloc_bytes_per_slot", peak / PROBE_SLOTS, "B/slot")

    probe.group(("simulate.alloc_bytes_per_slot",),
                SIM_API, alloc)

    def step():
        Strategy, ArqState, Ctx = api["Strategy"], api["ArqState"], api["PolicyContext"]
        retrans = api["Phase"].RETRANSMISSION
        steps = 0
        for name in ALL_STRATEGIES:
            strategy = Strategy(name)
            cases = []
            for b in range(12):
                state = ArqState.from_b_index(b)
                for token in (0, 1):
                    for view in range(8):
                        ctx = Ctx(phase=retrans, token=token)
                        ctx.set_csi_from_index(view, -1)
                        cases += [(state, ctx, chan) for chan in range(8)]
            policy_action, apply_slot = api["policy_action"], api["apply_slot"]
            with tracer.span("protocol.policy_action+apply_slot"):
                for state, ctx, chan in cases:
                    apply_slot(state, policy_action(strategy, state, ctx), chan)
            steps += len(cases)
        total = sum(tracer.durations("protocol.policy_action+apply_slot"))
        probe.put("protocol.step_us", 1e6 * total / steps, "us")

    probe.group(("protocol.step_us",),
                ("Strategy", "ArqState", "Phase", "PolicyContext", "policy_action", "apply_slot"),
                step)
