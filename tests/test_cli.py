import json
import re

from vanetgka.cli import main
from vanetgka.registry import load_ta
from vanetgka.wire import RsuBeacon, decode_message


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ta_lifecycle_and_trace(tmp_path, capsys):
    state = str(tmp_path / "ta")
    code, out, err = run(capsys, "ta", "init", "--profile", "small64", "--seed", "1",
                         "--state-dir", state)
    assert code == 0

    code, out, err = run(capsys, "ta", "register-rsu", "--state-dir", state,
                         "--tid", "rsu-1", "--loc", "50000,0", "--seed", "2")
    assert code == 0
    rsu = json.loads(out[out.index("{"):])
    beacon = decode_message(bytes.fromhex(rsu["beacon"]), 8)
    assert isinstance(beacon, RsuBeacon)

    code, out, err = run(capsys, "ta", "register-vehicle", "--state-dir", state,
                         "--tid", "veh-1")
    assert code == 0

    # round-trip: refresh an epoch out of band and trace it via the CLI
    import random

    from vanetgka.registry import refresh_vehicle_epoch

    ta = load_ta(state)
    epoch = refresh_vehicle_epoch(ta.registry[b"veh-1"], ta.params, random.Random(3))
    code, out, err = run(capsys, "ta", "trace", "--state-dir", state,
                         "--fid", epoch.fid.hex(), "--pk", str(epoch.pk_v))
    assert code == 0
    assert out.strip() == "veh-1"


def test_ta_duplicate_registration_fails(tmp_path, capsys):
    state = str(tmp_path / "ta")
    run(capsys, "ta", "init", "--profile", "small64", "--state-dir", state)
    run(capsys, "ta", "register-vehicle", "--state-dir", state, "--tid", "v")
    code, out, err = run(capsys, "ta", "register-vehicle", "--state-dir", state,
                         "--tid", "v")
    assert code == 2
    assert "protocol failure" in err


def test_gka_run_prints_equal_keys(capsys):
    code, out, err = run(capsys, "gka", "run", "--n", "3", "--seed", "7",
                         "--profile", "small64")
    assert code == 0
    keys = re.findall(r"sk=(\d+)", out)
    assert len(keys) == 3
    assert len(set(keys)) == 1
    assert "agreed session key" in out


def test_gka_run_rejects_single_member(capsys):
    code, out, err = run(capsys, "gka", "run", "--n", "1", "--seed", "7")
    assert code == 1


def test_auth_demo(capsys):
    code, out, err = run(capsys, "auth", "demo", "--seed", "5", "--profile", "small64")
    assert code == 0
    assert "authenticated" in out
    assert "fast path admission" in out
    assert "overhead per vehicle message: 58 bytes" in out


def test_cost_table(tmp_path, capsys):
    out_path = tmp_path / "costs.csv"
    code, out, err = run(capsys, "cost", "table", "--n-max", "20", "--step", "10",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,scheme,side,ms,bytes"
    assert len(lines) == 1 + 2 * (10 + 4)
    ours = [l for l in lines if l.startswith("10,ours,rsu")]
    assert ours and ours[0].split(",")[3] == "114.0"


def test_simulate_with_defaults_like_config(tmp_path, capsys):
    cfg = {
        "n_vehicles": 4,
        "n_rsus": 2,
        "sim_time_s": 5.0,
        "rng_seed": 2,
        "crypto_profile": "small64",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.csv"
    code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                         "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert "n=4" in out


def test_simulate_missing_config_exits_1(capsys):
    code, out, err = run(capsys, "simulate", "--config", "/does/not/exist.json")
    assert code == 1
    assert "error" in err


def test_simulate_densities(tmp_path, capsys):
    cfg = {
        "n_vehicles": 2,
        "sim_time_s": 3.0,
        "rng_seed": 2,
        "crypto_profile": "small64",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                         "--densities", "2,3")
    assert code == 0
    assert "n=2" in out and "n=3" in out


def test_codec_dump(tmp_path, capsys):
    from vanetgka.crypto import get_profile
    from vanetgka.wire import UplinkMessage, encode_message

    params = get_profile("small64")
    msg = UplinkMessage(b"\x07" * 42, b"payload", b"\x09" * 16)
    path = tmp_path / "msg.bin"
    path.write_bytes(encode_message(msg, params.element_width))
    code, out, err = run(capsys, "codec", "dump", str(path), "--profile", "small64")
    assert code == 0
    assert "UplinkMessage" in out
    assert "0x31" in out


def test_codec_dump_garbage_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\xff\x00\x01")
    code, out, err = run(capsys, "codec", "dump", str(path))
    assert code == 1


def test_codec_dump_rejects_a_width_below_one(tmp_path, capsys):
    # RingResponse tag, empty tid, then a token count of 10^6: at width 0
    # every element is empty, so these 9 bytes would decode to 10^6 tokens
    path = tmp_path / "ring.bin"
    path.write_bytes(b"\x02" + bytes(4) + (10**6).to_bytes(4, "big"))
    for width in ("0", "-1"):
        code, out, err = run(capsys, "codec", "dump", str(path), "--width", width)
        assert code == 1
        assert "--width must be at least 1" in err
        assert out == ""


def test_usage_error_is_nonzero(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert code == 1


def test_simulate_rejects_malformed_config(tmp_path, capsys):
    bad = (
        ({"timings": {"t_foo": 1}}, "unknown timings fields: ['t_foo']"),
        ({"timings": 4.5}, "config field timings must be dict, got 4.5"),
        ({"n_vehicles": "10"}, "config field n_vehicles must be int, got '10'"),
        ({"timings": {"t_par": "4.5"}}, "timings field t_par must be float"),
        ({"rng_seed": True}, "config field rng_seed must be int"),
        ([1, 2], "config must be a JSON object"),
        ({"sim_time_s": float("nan")}, "sim_time_s must be in (0, inf), got nan"),
        ({"timings": {"t_mul": float("inf")}}, "primitive timings must be nonnegative and finite"),
    )
    cfg_path = tmp_path / "cfg.json"
    for cfg, message in bad:
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert out == ""


def test_ta_file_of_the_wrong_json_shape_exits_1(tmp_path, capsys):
    state = tmp_path / "ta"
    run(capsys, "ta", "init", "--profile", "small64", "--state-dir", str(state))
    run(capsys, "ta", "register-rsu", "--state-dir", str(state), "--tid", "rsu-1",
        "--loc", "0,0", "--seed", "2")
    registry = json.loads((state / "registry.json").read_text())
    registry["nodes"][0]["loc"] = 5
    (state / "registry.json").write_text(json.dumps(registry))
    code, out, err = run(capsys, "ta", "register-vehicle", "--state-dir", str(state),
                         "--tid", "veh-1")
    assert code == 1
    assert err == f"error: node {b'rsu-1'.hex()} loc must be [x, y], got 5\n"
    assert out == ""


def test_ta_file_with_a_bad_node_role_exits_1(tmp_path, capsys):
    state = tmp_path / "ta"
    run(capsys, "ta", "init", "--profile", "small64", "--state-dir", str(state))
    run(capsys, "ta", "register-rsu", "--state-dir", str(state), "--tid", "rsu-1",
        "--loc", "0,0", "--seed", "2")
    registry = json.loads((state / "registry.json").read_text())
    registry["nodes"][0]["role"] = "vehicle"
    (state / "registry.json").write_text(json.dumps(registry))
    code, out, err = run(capsys, "ta", "register-vehicle", "--state-dir", str(state),
                         "--tid", "veh-1")
    assert code == 1
    assert err == f"error: node {b'rsu-1'.hex()} is a vehicle with an sk, pk or loc\n"
    assert out == ""
