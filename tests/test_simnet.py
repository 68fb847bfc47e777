"""Simulator behaviour: conservation, determinism, timing closed forms."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringveil import crypto, protocol, schedule, simnet

PARAMS = crypto.gen_params(64, rng_seed=404)


def small_config(**kw):
    base = dict(n_physical=3, rounds=5, modulus_bits=64, seed=7)
    base.update(kw)
    return simnet.SimConfig(**base)


def compile_plan(config, text, rng_seed=5):
    order = schedule.parse_schedule_text(text)
    plan = schedule.compile(
        order,
        simnet.registry_for(config),
        PARAMS,
        simnet.predicted_forward_times(config),
        rng_seed=rng_seed,
        squarings_per_unit=config.squarings_per_tick,
    )
    return order, plan


def closed_form_latency(config):
    tx = simnet.transmit_time(config, simnet.layout_for(config).frame_size)
    n = config.n_virtual
    return (n + 1) * (config.hop_latency + tx) + n * config.hold


class TestConfig:
    def test_n_virtual_defaults_to_physical(self):
        assert small_config().n_virtual == 3

    def test_rejects_virtual_below_physical(self):
        with pytest.raises(ValueError):
            small_config(n_virtual=2)

    def test_rejects_jitter_at_hop_latency(self):
        with pytest.raises(ValueError):
            small_config(jitter=500, hop_latency=500)

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            small_config(topology="mesh")

    @pytest.mark.parametrize("name", ["hold", "command_interval"])
    def test_rejects_negative_spacing(self, name):
        with pytest.raises(ValueError):
            small_config(**{name: -1})

    def test_fingerprint_ignores_rounds_seed_topology(self):
        a = small_config().fingerprint()
        assert small_config(rounds=50, seed=1, topology="star").fingerprint() == a
        assert small_config(hop_latency=501).fingerprint() != a


class TestRingConservation:
    def test_hub_and_device_state_does_not_grow_with_rounds(self):
        def container_sizes(rounds):
            config = small_config(n_physical=2, n_virtual=6, rounds=rounds)
            _trace, _reports, _stats, hub, devices = simnet._run_ring(
                config, None, None, simnet.registry_for(config)
            )
            assert hub.round == rounds
            return [
                {
                    name: len(value)
                    for name, value in vars(party).items()
                    if isinstance(value, (list, dict, set, bytes))
                }
                for party in (hub, *devices.values())
            ]

        assert container_sizes(10) == container_sizes(200)

    def test_emulating_device_unwraps_once_per_round(self, monkeypatch):
        config = small_config(n_physical=2, n_virtual=6, rounds=40)
        registry = simnet.registry_for(config)
        owner_of = {id(registry.device_secret(d)): d for d in (1, 2)}
        attempts = {1: 0, 2: 0}
        unwrap = crypto.unwrap_for_device

        def counting_unwrap(frame, secret):
            attempts[owner_of[id(secret)]] += 1
            return unwrap(frame, secret)

        monkeypatch.setattr(crypto, "unwrap_for_device", counting_unwrap)
        _trace, _reports, _stats, _hub, devices = simnet._run_ring(config, None, None, registry)
        # Each device sees every token three times but unwraps it once.
        assert attempts == {1: 40, 2: 40}
        for device in devices.values():
            assert device.last_token_id == 40
            assert not any(isinstance(v, (set, dict)) for v in vars(device).values())

    def test_one_record_per_crossing_plus_return(self):
        trace, _, _ = simnet.run(small_config())
        for r in range(1, 6):
            assert sum(1 for rec in trace.records if rec[4] == r) == 4

    def test_virtual_devices_multiply_crossings(self):
        config = small_config(n_physical=2, n_virtual=6, rounds=3)
        trace, _, _ = simnet.run(config)
        by_round = {}
        for rec in trace.records:
            by_round.setdefault(rec[4], []).append(rec)
        for r, recs in by_round.items():
            assert len(recs) == 7
        # hops walk the physical ring cyclically and end at the hub
        hops = [(rec[1], rec[2]) for rec in by_round[2]]
        assert hops == [(0, 1), (1, 2), (2, 1), (1, 2), (2, 1), (1, 2), (2, 0)]

    def test_frame_size_constant(self):
        config = small_config()
        expected = simnet.layout_for(config).frame_size
        trace, _, _ = simnet.run(config)
        assert {rec[3] for rec in trace.records} == {expected}

    def test_plan_does_not_change_frame_size(self):
        config = small_config(rounds=8)
        _, plan = compile_plan(config, "device 1\ndevice 2\ndevice 3\npair 1 2\n")
        bare, _, _ = simnet.run(config)
        loaded, _, _ = simnet.run(config, plan)
        assert [rec[3] for rec in bare.records] == [rec[3] for rec in loaded.records]


class TestRingTiming:
    def test_latency_matches_closed_form(self):
        config = small_config()
        _, _, stats = simnet.run(config)
        assert stats["mean_latency_us"] == closed_form_latency(config)
        assert stats["var_latency_us"] == 0

    def test_closed_form_holds_for_virtual_ring(self):
        config = small_config(n_physical=2, n_virtual=9, rounds=4)
        _, _, stats = simnet.run(config)
        assert stats["mean_latency_us"] == closed_form_latency(config)

    def test_zero_jitter_inter_arrivals_are_uniform(self):
        trace, _, _ = simnet.run(small_config(rounds=10))
        times = [rec[0] for rec in trace.records]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) == 1

    def test_t_sum_excludes_holds(self):
        config = small_config()
        _, _, stats = simnet.run(config)
        expected = closed_form_latency(config) - config.n_virtual * config.hold
        assert stats["t_sum_mean_us"] == expected

    def test_jitter_perturbs_but_conserves(self):
        config = small_config(jitter=40, rounds=10)
        trace, _, stats = simnet.run(config)
        assert stats["var_latency_us"] > 0
        for r in range(1, 11):
            assert sum(1 for rec in trace.records if rec[4] == r) == 4

    def test_forward_instants_match_prediction(self):
        config = small_config()
        predicted = simnet.predicted_forward_times(config)
        trace, _, _ = simnet.run(config)
        first_round = [rec for rec in trace.records if rec[4] == 1]
        # arrival at position p plus the hold is the forward instant
        for p, rec in enumerate(first_round[:-1]):
            assert rec[0] + config.hold == predicted[p]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        config = small_config(jitter=40, rounds=8)
        a, _, _ = simnet.run(config)
        b, _, _ = simnet.run(config)
        assert simnet.trace_to_csv(a) == simnet.trace_to_csv(b)

    def test_different_seed_different_trace(self):
        a, _, _ = simnet.run(small_config(jitter=40))
        b, _, _ = simnet.run(small_config(jitter=40, seed=8))
        assert simnet.trace_to_csv(a) != simnet.trace_to_csv(b)

    def test_registry_for_is_deterministic(self):
        config = small_config()
        r1 = simnet.registry_for(config)
        r2 = simnet.registry_for(config)
        assert r1.ring_key == r2.ring_key
        assert r1.device_public(2) == r2.device_public(2)
        assert simnet.registry_for(small_config(seed=9)).ring_key != r1.ring_key


class TestTraceCsv:
    def test_roundtrip(self):
        trace, _, _ = simnet.run(small_config())
        text = simnet.trace_to_csv(trace)
        assert text.startswith("time_us,src,dst,bytes,round\n")
        back = simnet.trace_from_csv(text, trace.config_fingerprint)
        assert back.records == trace.records
        assert back.config_fingerprint == trace.config_fingerprint

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            simnet.trace_from_csv("1,2,3,4,5\n")


class TestPlanExecution:
    def test_reports_verify_and_respect_ordering(self):
        config = small_config(rounds=14)
        _, plan = compile_plan(
            config,
            "device 1\ndevice 2\ndevice 3\npair 1 2\nstate 2 off\n",
        )
        _, reports, stats = simnet.run(config, plan)
        assert len(reports) == 3
        assert protocol.owner_verify_execution(reports, PARAMS, plan)
        t_com = {r.device_id: r.t_com for r in reports}
        assert t_com[1] < t_com[2]
        assert stats["uploads_recovered"] >= 3

    def test_incomparable_devices_actuate_together(self):
        config = small_config(n_physical=5, rounds=16)
        _, plan = compile_plan(
            config, "device 1\ndevice 2\ndevice 3\ndevice 4\ndevice 5\npair 1 2\n"
        )
        _, reports, _ = simnet.run(config, plan)
        free = {r.t_com for r in reports if r.device_id in (3, 4, 5)}
        assert len(free) == 1

    def test_scripted_read_is_uploaded(self):
        config = small_config(rounds=10)
        order, plan = compile_plan(
            config, "device 1\ndevice 2\ndevice 3\nread 3\n"
        )
        _, _, bare_stats = simnet.run(config, plan)
        _, _, stats = simnet.run(config, plan, script=order.effective_script())
        assert stats["uploads_recovered"] == bare_stats["uploads_recovered"] + 1

    def test_report_width_checked_before_the_run(self):
        params = crypto.gen_params(128, rng_seed=9)

        def run_with(data_per_device):
            config = small_config(modulus_bits=128, data_per_device=data_per_device, rounds=12)
            plan = schedule.compile(
                schedule.parse_schedule_text("device 1\ndevice 2\ndevice 3\n"),
                simnet.registry_for(config),
                params,
                simnet.predicted_forward_times(config),
                rng_seed=5,
            )
            return simnet.run(config, plan)

        # a 128-bit report: 24 + 16 bytes, plus its 2-byte length prefix
        with pytest.raises(ValueError, match="at least 42"):
            run_with(41)
        _, reports, _ = run_with(42)
        assert len(reports) == 3
        _, reports, _ = simnet.run(small_config(modulus_bits=128, data_per_device=2))
        assert reports == []  # padding-only rings need no report width

    def test_ring_does_not_depend_on_the_pairs(self):
        # A wiretap sees who sends to whom; a pair, its reverse and a chain
        # running against device-id order must all put the same frames on
        # the same links at the same instants.
        config = small_config(n_physical=4, rounds=12)
        traces = []
        for pairs in ("pair 1 4\n", "pair 4 1\n", "pair 3 2\npair 2 1\n"):
            text = "device 1\ndevice 2\ndevice 3\ndevice 4\n" + pairs
            order, plan = compile_plan(config, text)
            trace, reports, _ = simnet.run(config, plan)
            assert protocol.owner_verify_execution(reports, PARAMS, plan)
            t_com = {r.device_id: r.t_com for r in reports}
            assert all(t_com[a] < t_com[b] for a, b in order.pairs)
            traces.append(simnet.trace_to_csv(trace))
        assert traces[0] == traces[1] == traces[2]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        raw_pairs=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=3),
        jitter=st.sampled_from([0, 100]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_plans_audit_and_actuate_in_pair_order(self, n, raw_pairs, jitter, seed):
        pairs = [(a, b) for a, b in raw_pairs if a <= n and b <= n and a != b]
        text = "".join(f"device {d}\n" for d in range(1, n + 1))
        text += "".join(f"pair {a} {b}\n" for a, b in pairs)
        config = small_config(n_physical=n, jitter=jitter, seed=seed)
        try:
            order, plan = compile_plan(config, text, rng_seed=seed)
        except schedule.CycleError:
            assume(False)
        # enough rounds to finish the slowest solve, then request and upload
        rounds = plan.slot_length // closed_form_latency(config) + 6
        _, reports, _ = simnet.run(replace(config, rounds=rounds), plan)
        assert protocol.owner_verify_execution(reports, PARAMS, plan)
        t_com = {r.device_id: r.t_com for r in reports}
        assert all(t_com[a] < t_com[b] for a, b in order.pairs)

    def test_plan_naming_a_device_twice_is_refused_by_name(self):
        config = small_config()
        _, plan = compile_plan(config, "device 1\ndevice 2\ndevice 3\n")
        twice = replace(plan, entries=plan.entries + (replace(plan.entries[1], device_id=1),))
        with pytest.raises(ValueError, match="device 1 has more than one plan entry"):
            simnet.run(config, twice)

    def test_a_run_makes_no_x25519_exchange(self, monkeypatch):
        config = small_config(rounds=14)
        _, plan = compile_plan(config, "device 1\ndevice 2\ndevice 3\npair 1 2\n")
        registry = simnet.registry_for(config)
        key_type = type(registry.device_keypairs[1][0])
        exchange = key_type.exchange
        calls = []

        def counting_exchange(key, peer):
            calls.append(peer)
            return exchange(key, peer)

        monkeypatch.setattr(key_type, "exchange", counting_exchange)
        simnet.registry_for(config)
        assert len(calls) == 3  # provisioning derives each device's k_dev once
        calls.clear()
        _, reports, _ = simnet.run(config, plan, registry=registry)
        assert len(reports) == 3 and calls == []

    def tie_config(self, rounds):
        # The device takes its puzzle at 450 us and holds 100 us, so its
        # 1000-squaring solve lands at 1550 us: exactly its second arrival.
        return simnet.SimConfig(
            n_physical=1, rounds=rounds, modulus_bits=64, seed=3,
            hop_latency=449, bandwidth=10**6, hold=100,
        )

    def test_solve_tied_with_an_arrival_runs_first(self):
        config = self.tie_config(rounds=4)
        _, plan = compile_plan(config, "device 1\n")
        _, reports, _, hub, devices = simnet._run_ring(
            config, plan, None, simnet.registry_for(config)
        )
        assert devices[1].actuated == (plan.entries[0].command, 1550)
        # the solve precedes the round-2 arrival, which raises the request;
        # round 3 grants it and carries the report home
        assert [r.t_com for r in reports] == [1550]
        assert [rnd for rnd, _, _ in hub.recovered] == [3]

    def test_solve_after_the_last_round_still_runs(self):
        config = self.tie_config(rounds=1)
        _, plan = compile_plan(config, "device 1\n")
        _, reports, _, _, devices = simnet._run_ring(
            config, plan, None, simnet.registry_for(config)
        )
        assert reports == []
        assert devices[1].actuated == (plan.entries[0].command, 1550)

    def test_plan_for_another_ring_size_is_refused(self):
        _, plan = compile_plan(
            small_config(n_physical=4), "device 1\ndevice 2\ndevice 3\ndevice 4\n"
        )
        with pytest.raises(ValueError, match="plan covers 4 devices, config has 5"):
            simnet.run(small_config(n_physical=5), plan)

    def test_foreign_plan_is_rejected(self):
        config = small_config()
        other = schedule.parse_schedule_text("device 1\ndevice 2\ndevice 3\n")
        foreign = crypto.KeyRegistry.provision(range(1, 4), seed=999)
        plan = schedule.compile(
            other, foreign, PARAMS, simnet.predicted_forward_times(config)
        )
        with pytest.raises(ValueError):
            simnet.run(config, plan)


class TestStar:
    def test_set_commands_have_no_response(self):
        config = small_config(topology="star", rounds=1, command_interval=50_000)
        trace, reports, _ = simnet.run(
            config, script=[("set", 1, "on"), ("set", 2, "off")]
        )
        assert reports == []
        assert [rec[1:4] for rec in trace.records] == [
            (0, 1, simnet.STAR_COMMAND_BYTES),
            (0, 2, simnet.STAR_COMMAND_BYTES),
        ]

    def test_read_commands_draw_a_response(self):
        config = small_config(topology="star", rounds=1, command_interval=50_000)
        trace, _, _ = simnet.run(config, script=[("read", 2)])
        assert [rec[1:4] for rec in trace.records] == [
            (0, 2, simnet.STAR_COMMAND_BYTES),
            (2, 0, config.data_per_device),
        ]

    def test_script_defaults_to_plan_entries(self):
        config = small_config(topology="star", rounds=1, command_interval=50_000)
        _, plan = compile_plan(small_config(), "device 1\ndevice 2\ndevice 3\n")
        trace, _, _ = simnet.run(config, plan)
        assert [rec[2] for rec in trace.records] == [1, 2, 3]

    def test_commands_arrive_in_separated_bursts(self):
        config = small_config(topology="star", rounds=3, command_interval=1_000_000)
        trace, _, _ = simnet.run(config, script=[("read", 1), ("set", 2, "on")])
        starts = sorted({rec[0] // config.command_interval for rec in trace.records})
        assert starts == [0, 1, 2, 3, 4, 5]


class TestSweep:
    def test_latency_grows_with_device_count(self):
        rows = simnet.latency_sweep(small_config(rounds=3), [3, 7, 11])
        assert [row["n_devices"] for row in rows] == [3, 7, 11]
        lat = [row["mean_latency_us"] for row in rows]
        assert lat[0] < lat[1] < lat[2]
        assert lat[2] - lat[1] >= lat[1] - lat[0]
        assert all(row["var_latency_us"] == 0 for row in rows)

    def test_token_bytes_grow_linearly(self):
        rows = simnet.latency_sweep(small_config(rounds=2), [3, 5, 7])
        sizes = [row["mean_token_bytes"] for row in rows]
        assert sizes[1] - sizes[0] == sizes[2] - sizes[1] > 0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            simnet.latency_sweep(small_config(), [])
