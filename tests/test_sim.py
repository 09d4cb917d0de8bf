import dataclasses
import gc
import math
import weakref
from collections import Counter

import pytest

from vanetgka import groupcomm, groupkey, wire
from vanetgka.costs import PrimitiveTimings, average_delay, effective_rsu_delay
from vanetgka.sim import (
    MetricsReport,
    ScenarioConfig,
    Simulation,
    _RSU_HANDLERS,
    _VehicleNode,
    run_scenario,
    sweep_density,
    write_sweep_csv,
)
from wiregen import count_crypto_calls

# the small64 profile keeps unit-test runs quick; the acceptance suite
# also exercises the default profile
FAST = ScenarioConfig(crypto_profile="small64", n_vehicles=6, n_rsus=2, rng_seed=3)


def test_defaults_follow_the_published_table():
    cfg = ScenarioConfig()
    assert cfg.road_length_m == 1000
    assert cfg.sim_time_s == 20
    assert cfg.message_size_bytes == 200
    assert cfg.broadcast_interval_ms == 300
    assert cfg.interval_variance_s == 0.05
    assert cfg.rsu_range_m == 600
    assert cfg.vehicle_range_m == 300
    assert cfg.bandwidth_mbps == 6
    assert cfg.illegal_fraction == 0.05
    assert (cfg.timings.t_par, cfg.timings.t_mul, cfg.timings.t_mp, cfg.timings.t_hmac) == (
        4.5,
        0.6,
        0.6,
        0.006,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(road_length_m=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(n_vehicles=-1).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(illegal_fraction=1.5).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(bandwidth_mbps=-6).validate()
    # a NaN or infinite end time would never stop the event loop
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sim_time_s"):
            ScenarioConfig(sim_time_s=value).validate()
        with pytest.raises(ValueError, match="primitive timings"):
            ScenarioConfig(timings=PrimitiveTimings(t_par=value)).validate()


def test_jitter_that_could_send_time_backwards_is_rejected():
    # a broadcast interval drawn from 40 +- 50 ms can be negative
    with pytest.raises(ValueError, match="interval_variance_s"):
        ScenarioConfig(broadcast_interval_ms=40.0, interval_variance_s=0.05).validate()
    with pytest.raises(ValueError, match="interval_variance_s"):
        ScenarioConfig(broadcast_interval_ms=50.0, interval_variance_s=0.05).validate()
    ScenarioConfig(broadcast_interval_ms=51.0, interval_variance_s=0.05).validate()


def test_config_json_round_trip(tmp_path):
    cfg = dataclasses.replace(FAST, illegal_fraction=0.1)
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert ScenarioConfig.from_json_file(path) == cfg


def test_config_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown config"):
        ScenarioConfig.from_json_dict({"no_such_knob": 1})


def test_same_seed_identical_reports():
    a = run_scenario(FAST)
    b = run_scenario(FAST)
    assert a == b


def test_different_seeds_differ_somewhere():
    a = run_scenario(FAST)
    b = run_scenario(dataclasses.replace(FAST, rng_seed=4))
    assert a != b


def test_zero_vehicles_clean_report():
    report = run_scenario(dataclasses.replace(FAST, n_vehicles=0))
    assert report == MetricsReport(0, None, 0, 0, 0, 0)


def test_every_legit_vehicle_joins_under_relaxed_freshness():
    cfg = dataclasses.replace(
        FAST, illegal_fraction=0.0, delta_max_ms=1e9, n_vehicles=8, rng_seed=5
    )
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.incomplete_associations == 0
    assert report.auth_count + report.fastpath_count >= cfg.n_vehicles
    assert all(v.joined or not v.on_road for v in sim.vehicles)


def test_fast_path_engages_across_rsu_boundary():
    cfg = dataclasses.replace(
        FAST,
        n_vehicles=10,
        illegal_fraction=0.0,
        rng_seed=11,
        vehicle_speed_mps=30.0,
    )
    report = run_scenario(cfg)
    assert report.fastpath_count > 0


def test_illegal_vehicles_fail_and_are_not_admitted():
    cfg = dataclasses.replace(FAST, n_vehicles=8, illegal_fraction=0.25, rng_seed=7)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.failed_full_auths > 0
    illegal = [v for v in sim.vehicles if not v.legit]
    assert illegal and not any(v.joined for v in illegal)


def vehicle_send_overheads(sim):
    """Wrap ``sim._send``; the returned list collects the overhead of every
    message a vehicle sends."""
    overheads = []
    send = sim._send

    def counting_send(msg, sender, *args):
        if type(sender) is _VehicleNode:
            overheads.append(groupcomm.measure_overhead(msg))
        send(msg, sender, *args)

    sim._send = counting_send
    return overheads


def test_overhead_is_58_per_vehicle_message():
    sim = Simulation(FAST)
    overheads = vehicle_send_overheads(sim)
    report = sim.run()
    assert len(overheads) > 0
    assert set(overheads) == {58}
    assert report.total_overhead_bytes == 58 * len(overheads)


def test_conservation_deliveries_do_not_exceed_fanout():
    # every delivery entry scheduled by a send arrives by end_ms, so
    # deliveries equal the receivers of the scheduled entries exactly
    sim = Simulation(FAST)
    scheduled = []
    push = sim._push

    def counting_push(time_ms, handler, *args):
        if handler is Simulation._on_delivery:
            scheduled.append(args[3])
        push(time_ms, handler, *args)

    sim._push = counting_push
    sim.run()
    assert sim.messages_sent > 0
    assert sim.messages_delivered == sum(len(receivers) for receivers in scheduled)


def test_one_send_is_one_heap_entry_and_one_delivery_per_receiver():
    sim = Simulation(dataclasses.replace(FAST, n_vehicles=10), keep_samples=True)
    sim.run()
    veh = _joined_vehicle(sim)
    others = [v for v in sim.vehicles if v is not veh and v.on_road and v.joined]
    assert len(others) >= 3 and others[0].mstate.gk != veh.mstate.gk
    receivers = tuple(others)
    for v in others[1:]:
        v.mstate.gk = veh.mstate.gk  # the first receiver keeps another key
    msg = groupcomm.broadcast(sim.params, veh.mstate.gk, veh.mstate.fid, b"payload", sim.rng)
    sim._heap.clear()
    sent, delivered = sim.messages_sent, sim.messages_delivered
    drops, samples = sim.drops.total(), len(sim.samples)
    sim._send(msg, veh, receivers, sim.end_ms - 10.0, 0.5)
    assert sim.messages_sent == sent + 1
    assert len(sim._heap) == 1
    _, _, handler, args = sim._heap[0]
    assert handler is Simulation._on_delivery and args[3] == receivers
    sim.run()
    assert sim.messages_delivered == delivered + len(receivers)
    # in send order: one drop, then one sample per receiver that holds the key
    assert sim.drops.total() == drops + 1
    assert [s.receiver for s in sim.samples[samples:]] == [v.node_id for v in receivers[1:]]


def test_one_broadcast_to_receivers_under_one_key_is_one_hmac_and_one_decryption(monkeypatch):
    # every receiver of one delivery is handed the one decoded copy, which
    # keeps the outcome of its first open
    sim = Simulation(dataclasses.replace(FAST, n_vehicles=10), keep_samples=True)
    sim.run()
    veh = _joined_vehicle(sim)
    receivers = tuple(v for v in sim.vehicles if v is not veh and v.on_road and v.joined)
    assert len(receivers) >= 3
    for v in receivers:
        v.mstate.gk = veh.mstate.gk
    msg = groupcomm.broadcast(sim.params, veh.mstate.gk, veh.mstate.fid, b"payload", sim.rng)
    calls = count_crypto_calls(monkeypatch)
    sim._heap.clear()
    drops, samples = sim.drops.total(), len(sim.samples)
    sim._send(msg, veh, receivers, sim.end_ms - 10.0, 0.5)
    sim.run()
    assert sim.drops.total() == drops
    assert [s.receiver for s in sim.samples[samples:]] == [v.node_id for v in receivers]
    assert calls == {"hmac_tag": 1, "sym_decrypt": 1}


def test_a_group_key_transfer_is_one_send_to_every_other_rsu(monkeypatch):
    sim = Simulation(dataclasses.replace(FAST, n_rsus=3, n_vehicles=8, rng_seed=5))
    sealed = {}  # transfer -> the group key it carries
    calls = []  # transfer_gk calls per _transfer_group_key call
    sends = {}  # transfer -> (sender id, receiver ids)
    delivered = {}  # transfer -> the ids of the RSUs it reached, in order

    def counting_transfer_gk(params, state, session_key, rng):
        msg = transfer_gk(params, state, session_key, rng)
        calls[-1] += 1
        sealed[msg] = state.gk
        return msg

    def counting_transfer_group_key(rsu, depart):
        calls.append(0)
        transfer_group_key(rsu, depart)

    def recording_send(msg, sender, receivers, *args):
        if isinstance(msg, wire.GroupKeyTransfer):
            sends[msg] = (sender.node_id, [node.node_id for node in receivers])
        send(msg, sender, receivers, *args)

    def checking_handle_transfer(self, now, rsu, msg, sender):
        end = handle_transfer(self, now, rsu, msg, sender)
        assert sealed[msg] in rsu.neighbor_store.candidates()
        delivered.setdefault(msg, []).append(rsu.node_id)
        return end

    transfer_gk = groupkey.transfer_gk
    transfer_group_key, send = sim._transfer_group_key, sim._send
    handle_transfer = _RSU_HANDLERS[wire.GroupKeyTransfer]
    monkeypatch.setattr(groupkey, "transfer_gk", counting_transfer_gk)
    monkeypatch.setitem(_RSU_HANDLERS, wire.GroupKeyTransfer, checking_handle_transfer)
    sim._transfer_group_key, sim._send = counting_transfer_group_key, recording_send
    sim.run()
    assert calls and set(calls) == {1}
    assert len(sends) == len(calls)
    rsu_ids = [rsu.node_id for rsu in sim.rsus]
    for sender, receivers in sends.values():
        assert receivers == [tid for tid in rsu_ids if tid != sender]
    assert delivered
    for msg, reached in delivered.items():
        assert reached == sends[msg][1]


def test_streamed_average_matches_reference_metric():
    # both sum in the same order, so they agree to the last bit
    sim = Simulation(dataclasses.replace(FAST, n_vehicles=4, rng_seed=9), keep_samples=True)
    report = sim.run()
    assert report.average_delay_ms == average_delay(sim.samples)


def _joined_vehicle(sim):
    return next(v for v in sim.vehicles if v.on_road and v.joined and v.mstate.gk is not None)


def _deliver(sim, msg, sender, receiver):
    sim._on_delivery(sim.end_ms, msg, sim.messages_sent + 1, sender, (receiver,), 0.5, 0.1)


def test_a_forged_broadcast_is_one_typed_drop_and_no_sample():
    sim = Simulation(FAST, keep_samples=True)
    sim.run()
    veh = _joined_vehicle(sim)
    msg = groupcomm.broadcast(sim.params, veh.mstate.gk, veh.mstate.fid, b"payload", sim.rng)
    forged = dataclasses.replace(msg, mac=bytes(b ^ 1 for b in msg.mac))
    drops, samples = Counter(sim.drops), len(sim.samples)
    sender = sim.rsus[0]
    _deliver(sim, msg, sender, veh)  # the genuine one is sampled
    assert sim.drops == drops
    assert len(sim.samples) == samples + 1 and sim.samples[-1].receiver == veh.node_id
    _deliver(sim, forged, sender, veh)
    drops["GroupBroadcast", "MacFail"] += 1
    assert sim.drops == drops
    assert len(sim.samples) == samples + 1


def test_a_message_the_guard_ignores_is_neither_drop_nor_sample():
    sim = Simulation(FAST, keep_samples=True)
    sim.run()
    veh = _joined_vehicle(sim)
    drops, samples, delivered = dict(sim.drops), len(sim.samples), sim.messages_delivered
    # a joined vehicle does not answer beacons
    _deliver(sim, veh.target.beacon, veh.target, veh)
    assert (dict(sim.drops), len(sim.samples)) == (drops, samples)
    assert sim.messages_delivered == delivered + 1


def test_every_drop_is_counted_once():
    cfg = dataclasses.replace(FAST, n_vehicles=30, delta_max_ms=3.0, rng_seed=5)
    sim = Simulation(cfg)
    sim.run()
    assert min(sim.mac_drops, sim.stale_drops, sim.failed_full_auths) > 0
    assert sim.mac_drops + sim.stale_drops + sim.failed_full_auths == sim.drops.total()


def test_samples_name_the_receiver_and_the_sent_message():
    sim = Simulation(dataclasses.replace(FAST, n_vehicles=4, sim_time_s=3.0), keep_samples=True)
    sim.run()
    node_ids = {r.node_id for r in sim.rsus} | {v.node_id for v in sim.vehicles}
    assert sim.samples
    assert all(s.receiver in node_ids for s in sim.samples)
    assert all(1 <= s.message <= sim.messages_sent for s in sim.samples)
    pairs = [(s.message, s.receiver) for s in sim.samples]
    assert len(pairs) == len(set(pairs))


def test_fast_path_model_is_the_simulators_charge():
    # both sides take the default decryption charge, so n fast-path
    # arrivals in the model cost n of the simulator's charges exactly
    hello_fast = Simulation(FAST).charges.hello_fast
    for n in (1, 10, 100):
        assert effective_rsu_delay(n, 0.0, 0.0, FAST.timings) == n * hello_fast


def test_trace_goes_to_stderr_only(monkeypatch, capsys):
    monkeypatch.setenv("SIM_LOG", "trace")
    run_scenario(dataclasses.replace(FAST, n_vehicles=2, sim_time_s=1.0))
    out, err = capsys.readouterr()
    assert out == ""
    assert "[sim]" in err and "message_delivery RsuBeacon #1 rsu-" in err


def test_trace_times_never_decrease(monkeypatch, capsys):
    monkeypatch.setenv("SIM_LOG", "trace")
    run_scenario(FAST)
    _, err = capsys.readouterr()
    times = [float(line.removeprefix("[sim] t=").split()[0]) for line in err.splitlines()]
    assert len(times) > 1000
    assert times == sorted(times)


def test_rekeys_track_membership_events():
    sim = Simulation(dataclasses.replace(FAST, illegal_fraction=0.0, rng_seed=13))
    report = sim.run()
    # every admission rekeys once; departures add more
    assert report.rekey_count >= report.auth_count + report.fastpath_count


fleet_scan_cfgs = pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(n_vehicles=40),
        ScenarioConfig(
            road_length_m=3000.0,
            n_rsus=6,
            vehicle_speed_mps=35.0,
            vehicle_range_m=100.0,
            n_vehicles=20,
            sim_time_s=40.0,
        ),
    ],
    ids=["default-n40", "highway"],
)


@fleet_scan_cfgs
def test_the_member_map_agrees_with_the_fleet_scans_it_replaced(monkeypatch, cfg):
    # the references are the scans over every vehicle that the map replaced
    calls, broadcasts, crossings = [], [], []

    def joined_on(self, rsu):
        return {veh for veh in self.vehicles if veh.target is rsu and veh.joined}

    def checking_group_members(self, rsu):
        members = group_members(self, rsu)
        expected = {veh for veh in joined_on(self, rsu) if veh.mstate.fid in rsu.group.members}
        assert len(members) == len(set(members)) and set(members) == expected
        calls.append(len(members))
        return members

    def checking_broadcast(self, now, veh):
        if veh.on_road:
            # a broadcast reaches the joined vehicles of the map within range
            joined = joined_on(self, veh.target)
            assert {m for m in self.members[veh.target] if m.joined} == joined
            broadcasts.append(len(joined))
        broadcast(self, now, veh)

    def checking_enter_range(self, now, veh, new_target):
        # every joined vehicle is in its RSU's map under the fid it holds,
        # which is the fid the RSU evicts when it leaves
        joined = [v for v in self.vehicles if v.on_road and v.joined]
        assert all(self.members[v.target].get(v) == v.mstate.fid for v in joined)
        # and the RSU's group still holds that fid, so the eviction finds it
        assert all(self.members[v.target][v] in v.target.group.members for v in joined)
        crossings.append(len(joined))
        enter_range(self, now, veh, new_target)

    group_members = Simulation._group_members
    broadcast = Simulation._on_vehicle_broadcast
    enter_range = Simulation._on_vehicle_enter_range
    monkeypatch.setattr(Simulation, "_group_members", checking_group_members)
    monkeypatch.setattr(Simulation, "_on_vehicle_broadcast", checking_broadcast)
    monkeypatch.setattr(Simulation, "_on_vehicle_enter_range", checking_enter_range)
    sim = Simulation(cfg)
    sim.run()
    assert min(len(calls), len(broadcasts), len(crossings)) > 30
    assert min(max(calls), max(broadcasts), max(crossings)) >= 3
    assert sim.rekey_count > sim.auth_count + sim.fastpath_count  # members left


@fleet_scan_cfgs
def test_the_beacon_index_agrees_with_the_fleet_scan_it_replaced(monkeypatch, cfg):
    # a beacon's candidates are the vehicles targeting its RSU, in fleet order,
    # since every beacon send draws from the generator through its receiver
    sizes, served_by = [], {}

    def checking_beacon(self, now, rsu):
        assert self.served[rsu] == [v for v in self.vehicles if v.target is rsu]
        sizes.append(len(self.served[rsu]))
        for veh in self.served[rsu]:
            served_by.setdefault(veh, set()).add(rsu)
        beacon(self, now, rsu)

    beacon = Simulation._on_beacon
    monkeypatch.setattr(Simulation, "_on_beacon", checking_beacon)
    sim = Simulation(cfg)
    sim.run()
    assert len(sizes) > 30 and max(sizes) >= 3
    # vehicles crossed between RSUs and left the road
    assert max(map(len, served_by.values())) >= 2
    assert any(v.target is None for v in sim.vehicles)


def test_a_finished_simulation_is_freed_by_reference_counting():
    sim = Simulation(FAST)
    sim.run()
    assert any(sim.members.values())  # the map still holds vehicles
    nodes = [*sim.rsus, *sim.vehicles]
    freed = [weakref.ref(obj) for obj in (sim, *nodes)]
    gc.disable()  # only reference counting may free them
    try:
        del sim, nodes
        assert [ref() for ref in freed] == [None] * len(freed)
    finally:
        gc.enable()


def test_sweep_density_rows_and_csv(tmp_path):
    cfg = dataclasses.replace(FAST, sim_time_s=5.0)
    reports = sweep_density(cfg, [2, 4])
    assert [r.n_vehicles for r in reports] == [2, 4]
    out = tmp_path / "sweep.csv"
    write_sweep_csv(reports, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n_vehicles,average_delay_ms")
    assert len(lines) == 3


def test_overhead_monotone_in_density():
    cfg = dataclasses.replace(FAST, sim_time_s=5.0)
    for seed in range(3):
        seeded = dataclasses.replace(cfg, rng_seed=seed)
        reports = sweep_density(seeded, [2, 4, 8])
        overheads = [r.total_overhead_bytes for r in reports]
        assert overheads == sorted(overheads)
