import dataclasses

import pytest

from vanetgka.costs import average_delay
from vanetgka.sim import (
    EventKind,
    MetricsReport,
    ScenarioConfig,
    Simulation,
    run_scenario,
    sweep_density,
    write_sweep_csv,
)

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


def test_config_json_round_trip(tmp_path):
    cfg = dataclasses.replace(FAST, illegal_fraction=0.1)
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(cfg.to_json_dict()))
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


def test_gk_transfer_disabled_kills_fast_path():
    cfg = dataclasses.replace(
        FAST,
        n_vehicles=10,
        illegal_fraction=0.0,
        rng_seed=11,
        vehicle_speed_mps=30.0,
        gk_transfer_enabled=False,
    )
    report = run_scenario(cfg)
    assert report.fastpath_count == 0


def test_illegal_vehicles_fail_and_are_not_admitted():
    cfg = dataclasses.replace(FAST, n_vehicles=8, illegal_fraction=0.25, rng_seed=7)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.failed_full_auths > 0
    illegal = [v for v in sim.vehicles if not v.legit]
    assert illegal and not any(v.joined for v in illegal)


def test_overhead_is_58_per_vehicle_message():
    sim = Simulation(FAST)
    report = sim.run()
    assert report.total_overhead_bytes == 58 * sim.obu_to_rsu_sends
    assert sim.obu_to_rsu_sends > 0


def test_conservation_deliveries_do_not_exceed_fanout():
    # every delivery scheduled by a send arrives by end_ms, so deliveries
    # equal the scheduled fan-out exactly
    sim = Simulation(FAST)
    scheduled = []
    push = sim._push

    def counting_push(ev):
        if ev.kind is EventKind.MESSAGE_DELIVERY:
            scheduled.append(ev)
        push(ev)

    sim._push = counting_push
    sim.run()
    assert sim.messages_sent > 0
    assert sim.messages_delivered == len(scheduled)


def test_streamed_average_matches_reference_metric():
    sim = Simulation(dataclasses.replace(FAST, n_vehicles=4, rng_seed=9), keep_samples=True)
    report = sim.run()
    assert report.average_delay_ms == pytest.approx(average_delay(sim.samples))


def test_samples_name_the_receiver_and_the_sent_message():
    sim = Simulation(dataclasses.replace(FAST, n_vehicles=4, sim_time_s=3.0), keep_samples=True)
    sim.run()
    node_ids = {r.node_id for r in sim.rsus} | {v.node_id for v in sim.vehicles}
    assert sim.samples
    assert all(s.receiver in node_ids for s in sim.samples)
    assert all(1 <= s.message <= sim.messages_sent for s in sim.samples)
    pairs = [(s.message, s.receiver) for s in sim.samples]
    assert len(pairs) == len(set(pairs))


def test_trace_goes_to_stderr_only(monkeypatch, capsys):
    monkeypatch.setenv("SIM_LOG", "trace")
    run_scenario(dataclasses.replace(FAST, n_vehicles=2, sim_time_s=1.0))
    out, err = capsys.readouterr()
    assert out == ""
    assert "[sim]" in err and "message_delivery RsuBeacon #1 rsu-" in err


def test_rekeys_track_membership_events():
    sim = Simulation(dataclasses.replace(FAST, illegal_fraction=0.0, rng_seed=13))
    report = sim.run()
    # every admission rekeys once; departures add more
    assert report.rekey_count >= report.auth_count + report.fastpath_count


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
