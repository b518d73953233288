"""Where a width-1 lane overtakes the object engine on one run.

Regenerates the break-even table of ``docs/performance.md`` ("One run,
one lane") that ``repro.network.simulator.LANE_BREAK_EVEN`` is read off:
3 meshes x 6 injection rates x {xy, west_first}, each cell the time of a
width-1 ``BatchedLaneEngine`` run (engine construction included — what a
delegated ``NoCSimulator.run()`` pays) over the time of
``NoCSimulator._run_stepped()`` on the same point, the median of
``--repeats`` alternating pairs.  Every cell is also checked
bit-identical between the two.  Not a pytest bench: run it by hand,

    PYTHONPATH=src python benchmarks/measure_break_even.py

and re-derive the constant when the table moves (a few minutes).
"""

import argparse
import dataclasses
import statistics
from time import perf_counter

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults.injector import RandomFaultSchedule
from repro.network.batched import BatchedLaneEngine, LaneSpec
from repro.network.simulator import LANE_BREAK_EVEN, NoCSimulator
from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic

MESHES = (4, 6, 8)
RATES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)  # flits / node / cycle
ROUTINGS = ("xy", "west_first")
# the ledger's ``single_run_8x8`` shape: tolerated faults on protected routers
SIM = SimulationConfig(
    warmup_cycles=300, measure_cycles=1300, drain_cycles=800, seed=1,
    watchdog_cycles=10_000,
)


def _inputs(net, rate):
    traffic = SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=1)
    faults = RandomFaultSchedule(
        net.router, net.num_nodes, mean_interval=300 / net.num_nodes,
        num_faults=net.num_nodes // 2, rng=2, first_fault_at=0, avoid_failure=True,
    )
    return traffic, faults


def _key(res):
    return (
        res.cycles, res.drained, res.blocked, res.faults_injected,
        repr(res.stats.summary()), dataclasses.asdict(res.router_stats),
    )


def _object(net, rate, routing):
    traffic, faults = _inputs(net, rate)
    sim = NoCSimulator(
        net, SIM, traffic, protected_router_factory(net), faults, routing
    )
    t0 = perf_counter()
    res = sim._run_stepped()
    return perf_counter() - t0, res


def _lane(net, rate, routing):
    traffic, faults = _inputs(net, rate)
    t0 = perf_counter()
    res = BatchedLaneEngine(
        net, SIM, [LaneSpec(traffic, faults, "protected")], routing_kind=routing
    ).run()[0]
    return perf_counter() - t0, res


def measure(width, rate, routing, repeats):
    net = NetworkConfig(
        width=width, height=width, router=RouterConfig(num_vcs=4, num_vnets=2)
    )
    ratios, obj_s = [], []
    for i in range(repeats):
        order = (_object, _lane) if i % 2 == 0 else (_lane, _object)
        out = {run: run(net, rate, routing) for run in order}
        assert _key(out[_lane][1]) == _key(out[_object][1]), (width, rate, routing)
        ratios.append(out[_lane][0] / out[_object][0])
        obj_s.append(out[_object][0])
    return statistics.median(ratios), statistics.median(obj_s)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print(f"lane / object time (object seconds); LANE_BREAK_EVEN = {LANE_BREAK_EVEN}")
    print("| mesh | routing | " + " | ".join(f"{r:g}" for r in RATES) + " |")
    print("|---|---|" + "---|" * len(RATES))
    for width in MESHES:
        print(
            f"| {width}x{width} | flits/cycle | "
            + " | ".join(f"*{r * width * width:g}*" for r in RATES) + " |"
        )
        for routing in ROUTINGS:
            cells = [measure(width, r, routing, args.repeats) for r in RATES]
            print(
                f"| {width}x{width} | `{routing}` | "
                + " | ".join(f"{x:.2f} ({s:.2f} s)" for x, s in cells) + " |",
                flush=True,
            )
    print("all cells bit-identical")


if __name__ == "__main__":
    main()
