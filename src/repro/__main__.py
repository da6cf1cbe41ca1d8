"""``python -m repro`` — a guided, self-contained demo of the system.

Subcommands::

    python -m repro demo        # the full demo-day walk-through (default)
    python -m repro figures     # regenerate the four UI figures as text
    python -m repro stats       # run a household and dump router stats
    python -m repro metrics     # run a household and pretty-print telemetry
    python -m repro lint        # repro-lint: repo-specific static analysis
    python -m repro fuzz        # deterministic scenario fuzzing (repro.check)
    python -m repro bench       # perf harness + regression gate (repro.bench)
    python -m repro store       # durable-store inspection/recovery (repro.store)
    python -m repro explain     # show the query engine's plan for a CQL query
    python -m repro trace       # packet-lineage flight recorder (last/explain/drops)

Each demo runs entirely in simulated time and shows what the paper's
demo visitors would have seen.  All CLI output flows through ``logging``
(the library never calls ``print()`` — repro-lint enforces that);
``--verbose`` raises the level to DEBUG and turns on source prefixes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import HomeworkRouter, RouterConfig, Simulator
from .core.logging_setup import configure_logging
from .hwdb import render_table
from .sim.traffic import IoTTelemetry, VideoStreaming, WebBrowsing
from .ui.artifact import MODE_BANDWIDTH, MODE_EVENTS, MODE_SIGNAL, NetworkArtifact
from .ui.bandwidth_view import BandwidthView
from .ui.control_ui import ControlInterface
from .ui.policy_ui import PolicyInterface
from .services.udev.usbkey import UsbKey

logger = logging.getLogger("repro.cli")

#: CLI output = the logger's INFO stream. One name so every demo below
#: reads naturally while staying print()-free.
say = logger.info


def _build_household(seed: int, config=None):
    sim = Simulator(seed=seed)
    router = HomeworkRouter(sim, config=config or RouterConfig(default_permit=True))
    router.start()
    laptop = router.add_device(
        "toms-air", "02:aa:00:00:00:01", wireless=True, position=(4, 3)
    )
    tv = router.add_device("living-room-tv", "02:aa:00:00:00:02")
    ipad = router.add_device(
        "kids-ipad", "02:aa:00:00:00:03", wireless=True, position=(8, 2)
    )
    for host in (laptop, tv, ipad):
        host.start_dhcp()
    sim.run_for(5.0)
    WebBrowsing(laptop).start(0.5)
    VideoStreaming(tv).start(1.0)
    IoTTelemetry(ipad).start(0.7)
    sim.run_for(40.0)
    return sim, router, laptop, tv, ipad


def cmd_demo(seed: int) -> int:
    say("== Homework router demo (SIGCOMM 2011 reproduction) ==\n")
    sim, router, laptop, tv, ipad = _build_household(seed)

    say("-- Figure 1: the handheld bandwidth display --")
    view = BandwidthView(router.aggregator, sim, window=30.0)
    view.refresh()
    say(view.render())

    say("\n-- Figure 2: the network artifact --")
    artifact = NetworkArtifact(
        sim, router.bus, router.aggregator, radio=router.radio, db=router.db
    )
    for mode, label in ((MODE_SIGNAL, "signal"), (MODE_BANDWIDTH, "bandwidth")):
        artifact.set_mode(mode)
        artifact.tick()
        say("  mode %s (%s): %s", mode, label, artifact.strip.render())

    say("\n-- Figure 3: a new device knocks --")
    control = ControlInterface(router.control_api, router.bus)
    guest = router.add_device("guest-phone", "02:aa:00:00:00:09")
    # Guests wait for a human even on a default-permit router: deny-first.
    router.dhcp.policy.set_state(guest.mac, "pending")
    guest.start_dhcp(retry_interval=1.0)
    sim.run_for(1.5)
    control.refresh()
    say(control.render())
    control.drag(guest.mac, "permitted")
    sim.run_for(3.0)
    say("  after the drag: guest-phone leased %s", guest.ip)

    say("\n-- Figure 4: the house rule --")
    policy_ui = PolicyInterface(router.control_api, router.udev)
    strip = policy_ui.new_strip("kids: facebook only")
    strip.panel_who(ipad.mac)
    strip.panel_what("only_these_sites", ["facebook.com"])
    strip.panel_unless("usb_key", "parent-key")
    say("  %s", policy_ui.preview())
    policy_ui.publish()
    outcome = []
    ipad.resolve("www.youtube.com", lambda ip, rc: outcome.append(ip))
    sim.run_for(1.0)
    say("  iPad resolves youtube: %s", "BLOCKED" if outcome[0] is None else outcome[0])
    router.udev.insert(UsbKey.unlock_key("parent-key"))
    ipad.dns_cache.clear()
    outcome2 = []
    ipad.resolve("www.youtube.com", lambda ip, rc: outcome2.append(ip))
    sim.run_for(1.0)
    say("  with the parent key inserted: %s", outcome2[0])

    say("\n-- hwdb: the measurement plane --")
    say(render_table(router.db.query(
        "SELECT src_mac, sum(bytes) AS bytes FROM flows [RANGE 30 SECONDS] "
        "GROUP BY src_mac ORDER BY bytes DESC LIMIT 5"
    )))
    return 0


def cmd_figures(seed: int) -> int:
    sim, router, laptop, _tv, _ipad = _build_household(seed)
    view = BandwidthView(router.aggregator, sim, window=30.0)
    view.refresh()
    say(view.render())
    view.select_device(laptop.mac)
    say(view.render())
    artifact = NetworkArtifact(
        sim, router.bus, router.aggregator, radio=router.radio, db=router.db
    )
    for mode in (MODE_SIGNAL, MODE_BANDWIDTH, MODE_EVENTS):
        artifact.set_mode(mode)
        artifact.tick()
        say(artifact.render())
    control = ControlInterface(router.control_api, router.bus)
    control.refresh()
    say(control.render())
    say(PolicyInterface(router.control_api, router.udev).render())
    return 0


def cmd_stats(seed: int) -> int:
    _sim, router, *_ = _build_household(seed)
    say(json.dumps(router.stats(), indent=2, default=str))
    return 0


def cmd_metrics(seed: int) -> int:
    """Live telemetry snapshot: registry view + the hwdb Metrics table."""
    sim, router, *_ = _build_household(seed)
    sim.run_for(15.0)  # let a few flush intervals elapse

    say("== telemetry registry (live snapshot) ==\n")
    say(router.metrics.render_pretty())

    say("\n== hwdb Metrics table (what subscribers see) ==\n")
    client = router.hwdb_client()
    result = client.query(
        "SELECT name, field, value FROM metrics "
        f"[RANGE {router.config.metrics_flush_interval} SECONDS] "
        "WHERE field = 'value' OR field = 'p95' ORDER BY name LIMIT 20"
    )
    say(render_table(result))
    table = router.db.table("metrics")
    say(
        "\n%d metric rows published over %d flushes (every %gs simulated); "
        "%d retained in the ring.",
        table.total_inserted,
        router.metrics.value("obs.flush_total"),
        router.config.metrics_flush_interval,
        len(table),
    )
    return 0


def cmd_explain(argv) -> int:
    """``repro explain [--analyze] "<select>"`` against a demo household.

    Builds the standard household (so the standard schema and realistic
    traffic exist), then shows how :class:`repro.query.QueryEngine`
    would run the query: chosen tier, optimizer rewrites, operator tree
    and — with ``--analyze`` — observed row counts and timings.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Show the query engine's plan for a CQL SELECT",
    )
    parser.add_argument("query", help="the SELECT statement to explain")
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="execute once and annotate operators with rows/timings",
    )
    parser.add_argument("--seed", type=int, default=42, help="simulation seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose)
    _sim, router, *_ = _build_household(args.seed)
    prefix = "EXPLAIN ANALYZE " if args.analyze else "EXPLAIN "
    result = router.db.query(prefix + args.query)
    for (line,) in result.rows:
        say(line)
    return 0


def cmd_trace(argv) -> int:
    """``repro trace last|explain <id>|drops`` — the causal-chain CLI.

    Builds the standard demo household with tracing on (every packet
    sampled), stirs in a blocked site and a denied device so bad news
    exists, then answers from the hwdb ``Traces`` table — the same rows
    any UI could read over CQL or subscribe to over UDP RPC.
    """
    from .obs.trace import render_context, render_lineage
    from .services.dnsproxy.filter import DeviceRule, MODE_ALLOW

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Packet-lineage flight recorder: why did my packet do that?",
    )
    parser.add_argument("action", choices=["last", "explain", "drops"])
    parser.add_argument("trace_id", nargs="?", help="trace id (explain)")
    parser.add_argument("--seed", type=int, default=42, help="simulation seed")
    parser.add_argument("--sample", type=float, default=1.0, help="trace_sample")
    parser.add_argument("--limit", type=int, default=5, help="lineages to show")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose)
    if args.action == "explain" and not args.trace_id:
        parser.error("explain needs a trace id (try 'last' first)")

    config = RouterConfig(
        default_permit=True, trace_enabled=True, trace_sample=args.sample
    )
    sim, router, _laptop, tv, ipad = _build_household(args.seed, config=config)
    # Manufacture some bad news so `drops` has lineages to show: the
    # kids' iPad loses youtube, the TV gets denied outright.
    router.dns_proxy.filter.set_rule(
        ipad.mac, DeviceRule(MODE_ALLOW, blocked=["youtube.com"])
    )
    ipad.resolve("www.youtube.com", lambda _ip, _rc: None)
    sim.run_for(2.0)
    router.dhcp.policy.set_state(tv.mac, "denied")
    tv.udp_send(str(router.config.upstream_ip), 9999, b"denied?")
    # Let the flusher publish lineages into hwdb before querying.
    sim.run_for(2 * router.config.metrics_flush_interval)

    if args.action == "explain":
        safe_id = args.trace_id.replace("'", "")
        result = router.db.query(
            "SELECT seq, parent, component, verb, decision, cause, t "
            f"FROM traces WHERE trace_id = '{safe_id}'"
        )
        rows = [
            dict(zip(("seq", "parent", "component", "verb", "decision", "cause", "t"), row))
            for row in result.rows
        ]
        if not rows:
            say("trace %s: not found in the Traces table", args.trace_id)
            return 1
        say(render_lineage(args.trace_id, rows))
        return 0

    lineages = (
        router.tracer.drops(args.limit)
        if args.action == "drops"
        else router.tracer.recent(args.limit)
    )
    if not lineages:
        say("no finished lineages (is trace_sample too low?)")
        return 0
    for ctx in lineages:
        say(render_context(ctx))
        say("")
    say(
        "%d lineages; drill into one with: python -m repro trace explain <id>",
        len(lineages),
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        # The flight-recorder CLI owns its own argument set.
        return cmd_trace(argv[1:])
    if argv and argv[0] == "explain":
        # The explain subcommand takes a free-form query argument.
        return cmd_explain(argv[1:])
    if argv and argv[0] == "lint":
        # The linter owns its own argument set; hand everything through.
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "fuzz":
        # Likewise for the scenario fuzzer.
        from .check.cli import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "bench":
        # And the perf harness / regression gate.
        from .bench.cli import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "store":
        # And the durable-store inspector.
        from .store.cli import main as store_main

        return store_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Homework home router reproduction — guided demos",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="demo",
        choices=[
            "demo",
            "figures",
            "stats",
            "metrics",
            "lint",
            "fuzz",
            "bench",
            "store",
            "explain",
            "trace",
        ],
        help="which walk-through to run (default: demo)",
    )
    parser.add_argument("--seed", type=int, default=42, help="simulation seed")
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="DEBUG-level logging with source prefixes",
    )
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose)
    handlers = {
        "demo": cmd_demo,
        "figures": cmd_figures,
        "stats": cmd_stats,
        "metrics": cmd_metrics,
    }
    return handlers[args.command](args.seed)


if __name__ == "__main__":
    sys.exit(main())
