"""Golden digests: three fixed runs must keep producing byte-identical output.

Each run hashes its trace CSV and every frame sealed during the run (token
frames, puzzle command ciphertexts and device wraps alike), collected by
wrapping crypto.sym_seal.  A refactor of the token path that changes either
digest changed the bytes on the wire.  The same runs also pin the stats
dict that simnet.run returns, and the scheduled run its execution reports.
"""

import hashlib

import pytest

from ringveil import crypto, schedule, simnet


def _digests(monkeypatch, run):
    sealed = hashlib.sha256()
    original = crypto.sym_seal

    def recording_seal(plaintext, key, nonce):
        frame = original(plaintext, key, nonce)
        sealed.update(len(frame).to_bytes(4, "big") + frame)
        return frame

    monkeypatch.setattr(crypto, "sym_seal", recording_seal)
    trace, _stats = run()
    csv_digest = hashlib.sha256(simnet.trace_to_csv(trace).encode()).hexdigest()
    return csv_digest, sealed.hexdigest()


def _padding_ring():
    config = simnet.SimConfig(n_physical=3, n_virtual=64, jitter=40, rounds=4, seed=11)
    trace, _reports, stats = simnet.run(config)
    return trace, stats


def _scheduled_ring_run():
    config = simnet.SimConfig(n_physical=6, rounds=12, modulus_bits=128, seed=23)
    order = schedule.parse_schedule_text(
        "device 1\ndevice 2\ndevice 3\ndevice 4\ndevice 5\ndevice 6\n"
        "pair 2 5\nread 3\nread 6\n"
    )
    plan = schedule.compile(
        order,
        simnet.registry_for(config),
        crypto.gen_params(128, rng_seed=23),
        simnet.predicted_forward_times(config),
        rng_seed=23,
        squarings_per_unit=config.squarings_per_tick,
    )
    return simnet.run(config, plan, script=order.effective_script())


def _scheduled_ring():
    trace, reports, stats = _scheduled_ring_run()
    assert len(reports) == 6
    assert stats["uploads_recovered"] == 8
    return trace, stats


def _star_baseline():
    # A 300 us command spacing puts each read's response after the next command.
    config = simnet.SimConfig(
        n_physical=5, topology="star", jitter=40, rounds=3, seed=31, command_interval=300
    )
    script = (
        ("set", 1, schedule.STATE_ON),
        ("read", 2),
        ("set", 3, schedule.STATE_OFF),
        ("read", 5),
        ("set", 4, schedule.STATE_ON),
    )
    trace, _reports, stats = simnet.run(config, script=script)
    return trace, stats


@pytest.mark.parametrize(
    "run, trace_digest, frame_digest",
    [
        (
            _padding_ring,
            "546837d112af5cc8c86f99d86f6b8a0546f46a63ab3244ca66219a5342fc3c1a",
            "81a16eb76d2f8e934d57994d0f329b90f482d2866913578ad381f40ea19d1ff6",
        ),
        (
            _scheduled_ring,
            "341a959f5abc5a8419a30af98e00845e5f8d61bbcd9d021685820f3149d24252",
            "af2d280d99d1710ec517f0aba2ac13c50572e30bd6e797ab469f9708245bafd2",
        ),
        (
            # The star baseline seals nothing: its frame digest is that of no bytes.
            _star_baseline,
            "717cc7a959c07172b1353092e15d5cb5dcf7b9cd504d12b3ab4d48d71280b06d",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
    ],
    ids=["padding_ring", "scheduled_ring", "star_baseline"],
)
def test_golden_digests(monkeypatch, run, trace_digest, frame_digest):
    assert _digests(monkeypatch, run) == (trace_digest, frame_digest)


@pytest.mark.parametrize(
    "run, expected",
    [
        (
            _padding_ring,
            {
                "n_devices": 64,
                "rounds": 4,
                "mean_latency_us": 203170.25,
                "var_latency_us": 507.1875,
                "t_sum_mean_us": 196770.25,
                "mean_token_bytes": 25076.0,
                "uploads_recovered": 0,
            },
        ),
        (
            _scheduled_ring,
            {
                "n_devices": 6,
                "rounds": 12,
                "mean_latency_us": 5171.0,
                "var_latency_us": 0.0,
                "t_sum_mean_us": 4571.0,
                "mean_token_bytes": 1527.0,
                "uploads_recovered": 8,
            },
        ),
        (
            _star_baseline,
            {
                "n_devices": 5,
                "rounds": 3,
                "mean_latency_us": 794.8666666666667,
                "var_latency_us": 93756.24888888889,
                "mean_token_bytes": 109.71428571428571,
            },
        ),
    ],
    ids=["padding_ring", "scheduled_ring", "star_baseline"],
)
def test_golden_stats(run, expected):
    _trace, stats = run()
    assert stats == expected


def test_golden_reports():
    # The trace digest never sees a report's t_com; pin every field.
    _trace, reports, _stats = _scheduled_ring_run()
    assert [(r.device_id, r.t_com, r.t_hat, r.solution) for r in reports] == [
        (1, 5518, 4765, 37841044879751056259004944280852963738),
        (2, 2506, 1000, 205811952387741253584611151010291772240),
        (4, 5518, 2506, 237757754915977307621696178950038769697),
        (3, 5518, 3259, 172702467481494878326696894082342217083),
        (6, 5518, 1000, 71525902321912719439269145953589668550),
        (5, 16060, 12295, 205699163708478405485364721377286633413),
    ]


def _virtual_ring_with_a_read():
    # Each physical device stands in for two ring positions, so it seals two
    # frames a round; device 3 also uploads.
    config = simnet.SimConfig(n_physical=3, n_virtual=6, data_per_device=96)
    return simnet.run(config, script=[("read", 3)])


@pytest.mark.parametrize(
    "run, count",
    [(_scheduled_ring_run, 96), (_virtual_ring_with_a_read, 70)],
    ids=["scheduled_ring", "virtual_ring"],
)
def test_no_key_nonce_pair_seals_two_plaintexts(monkeypatch, run, count):
    # One run's every seal: hub and device frames, slot wraps and each e_z.
    # AES-GCM under a repeated (key, nonce) leaks the XOR of the plaintexts.
    seals = []
    original = crypto.sym_seal

    def recording_seal(plaintext, key, nonce):
        seals.append((bytes(key), nonce, bytes(plaintext)))
        return original(plaintext, key, nonce)

    monkeypatch.setattr(crypto, "sym_seal", recording_seal)
    run()
    assert len(seals) == count
    assert len({(key, nonce) for key, nonce, _ in seals}) == len(set(seals))
