"""Engineering benchmark: online campaign machinery overhead.

The campaign runner (:mod:`repro.experiments.fault_campaign`) adds a
temporal layer on top of a plain fault sweep: mid-run timeline
injection/healing, a :class:`RecoveryMonitor` per timeline, and the
degradation-report fold.  That layer must stay cheap — this bench runs
the same simulated work both ways as lanes of the batched engine (no
campaign point may fall back) and asserts the campaign's overhead vs a
plain static fault sweep stays within 25 %.
"""

import time
from unittest import mock

from repro.experiments.fault_campaign import CampaignConfig, run
from repro.experiments.latency import LatencyConfig, suite_traffic
from repro.experiments.parallel import LanePoint, run_lane_sweep
from repro.faults import RandomFaultSchedule, TimelineSpec
from repro.network.simulator import NoCSimulator

TIMELINES = 4
LATENCY = LatencyConfig(
    width=4, height=4,
    warmup_cycles=200, measure_cycles=1500, drain_cycles=2500, seed=9,
)
CAMPAIGN = CampaignConfig(
    timelines=TIMELINES,
    router_kinds=("protected",),
    timeline=TimelineSpec(events=4, mean_interval=300.0),
    latency=LATENCY,
    app="lu",
)


def _static_schedule(net, events, seed):
    """The plain-sweep counterpart: same fault count, fixed before run."""
    return RandomFaultSchedule(
        net.router, net.num_nodes, mean_interval=5.0, num_faults=events,
        rng=seed + 101, first_fault_at=0, avoid_failure=True,
    )


def _plain_points():
    """Mirror of the campaign's point list with static schedules."""
    net = LATENCY.network()
    sim_config = LATENCY.simulation()
    points = [
        LanePoint(
            config=net,
            sim_config=sim_config,
            make_traffic=suite_traffic,
            traffic_args=(net, CAMPAIGN.app, LATENCY.seed,
                          LATENCY.rate_scale),
            make_schedule=None,
            schedule_args=(),
            router_kind="protected",
            label="plain/fault-free",
        )
    ]
    for t in range(TIMELINES):
        points.append(
            LanePoint(
                config=net,
                sim_config=sim_config,
                make_traffic=suite_traffic,
                traffic_args=(net, CAMPAIGN.app, LATENCY.seed + t,
                              LATENCY.rate_scale),
                make_schedule=_static_schedule,
                schedule_args=(net, CAMPAIGN.timeline.events, t),
                router_kind="protected",
                label=f"plain/static-{t}",
            )
        )
    return points


def _run_plain():
    """The plain points as one lane chunk, like the campaign's."""
    return run_lane_sweep(_plain_points(), jobs=None)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_campaign_overhead_vs_plain_fault_sweep():
    """Timelines + recovery monitoring vs a static sweep, same points."""
    # warm both paths once so neither pays first-import costs
    _run_plain()

    # every point of both runs is a lane
    left = AssertionError("a point ran on the object engine's own loop")
    with mock.patch.object(NoCSimulator, "_run_stepped", side_effect=left):
        _, plain_s = _timed(_run_plain)
        res, campaign_s = _timed(lambda: run(CAMPAIGN, jobs=None))

    # the campaign did its job: temporal events measured end to end
    row = res.extras["rows"][0]
    assert row["kind"] == "protected"
    assert row["events"] == TIMELINES * CAMPAIGN.timeline.events

    ratio = campaign_s / plain_s
    print(
        f"\nfault campaign ({TIMELINES} timelines, lane engine): "
        f"plain {plain_s:.2f}s, campaign {campaign_s:.2f}s "
        f"-> {ratio:.2f}x overhead"
    )
    # the acceptance budget: online machinery costs <= 25% over a plain
    # fault sweep of the same simulated work (plus a small absolute
    # allowance so sub-second runs don't gate on scheduler noise)
    assert campaign_s <= plain_s * 1.25 + 0.5, (
        f"campaign overhead out of bounds: {ratio:.2f}x"
    )
