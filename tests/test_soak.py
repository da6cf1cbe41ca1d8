"""Long-run soak: two simulated hours of household life.

Verifies the properties that only show up over time: hwdb's rings wrap
without unbounded growth, leases renew indefinitely, flow tables drain
back to empty when traffic stops, and the simulator stays healthy across
hundreds of thousands of events.
"""

from repro.sim.traffic import MailSync, WebBrowsing

from tests.helpers import join_device, make_permissive_router

SOAK_SECONDS = 2 * 3600.0


def test_two_hour_soak():
    sim, router = make_permissive_router(
        seed=999, lease_time=600.0, hwdb_buffer_rows=2048
    )
    laptop = join_device(router, "laptop", "02:aa:00:00:00:01")
    desk = join_device(router, "desk", "02:aa:00:00:00:02")
    web = WebBrowsing(laptop)
    mail = MailSync(desk)
    web.start(1.0)
    mail.start(2.0)

    sim.run_until(SOAK_SECONDS / 2)
    web.stop()
    mail.stop()
    mid_stats = router.stats()
    sim.run_until(SOAK_SECONDS)

    # 1. Leases renewed throughout (600 s lease, T1 renewals).
    for host in (laptop, desk):
        lease = router.dhcp.leases.by_mac(host.mac)
        assert lease is not None and lease.active(sim.now)
        assert lease.renew_count >= 10

    # 2. hwdb stayed within its fixed memory budget while wrapping.
    stats = router.db.stats()
    assert stats["rows_retained"] <= 4 * router.config.hwdb_buffer_rows
    assert stats["rows_overwritten"] > 0  # the rings really wrapped

    # 3. All traffic flows idled out after the generators stopped
    #    (DHCP/ARP control chatter may still come and go).
    data_flows = [
        e for e in router.datapath.table if e.match.key[8] not in (67, 68)  # tp_dst
        and e.match.key[6] != 1  # nw_proto
    ]
    assert data_flows == []

    # 4. The network still works end to end after two hours.
    results = []
    laptop.ping(router.cloud.ip, lambda ok, rtt: results.append(ok))
    sim.run_for(3.0)
    assert results == [True]

    # 5. Sessions completed in volume during the active half.
    assert web.sessions_completed > 50
    assert mid_stats["hwdb"]["insert_total"] > 1000
