"""Wiretap-view construction and the attack experiments."""

import dataclasses
import math

import pytest

from ringveil import adversary, crypto, protocol, schedule, simnet

PARAMS = crypto.gen_params(64, rng_seed=505)
CFG = adversary.AdversaryConfig()


def make_puzzles(t_hats, t_val=10**9):
    return [
        crypto.puzzle_create(PARAMS, 3 + 2 * i, t, b"c" * 13, 11 * (i + 1), t_val)
        for i, t in enumerate(t_hats)
    ]


def ring_trace(seed=1, rounds=6, **kw):
    config = simnet.SimConfig(
        n_physical=3, rounds=rounds, modulus_bits=64, seed=seed, **kw
    )
    trace, _, _ = simnet.run(config)
    return trace


class TestConfig:
    def test_defaults(self):
        assert CFG.significance == 0.01

    def test_significance_bounds(self):
        adversary.AdversaryConfig(significance=0.1)
        for bad in (0.0, 0.11, -0.01):
            with pytest.raises(ValueError):
                adversary.AdversaryConfig(significance=bad)


class TestBuildView:
    def test_star_scenario_rows(self):
        # command to device 1, command to device 2, data back from device 2
        trace = simnet.TraceLog(
            records=[(10, 0, 1, 128, 1), (20, 0, 2, 128, 2), (30, 2, 0, 64, 2)],
            config_fingerprint="abc",
        )
        view = adversary.build_view(trace)
        assert view.command_obs == ((10, 1, 128), (20, 2, 128))
        assert view.data_obs == ((30, 2, 64),)
        assert view.config_fingerprint == "abc"

    def test_ring_hops_appear_on_both_sides(self):
        trace = ring_trace()
        view = adversary.build_view(trace)
        n_hops = len(trace.records)
        # hub->first misses data_obs, last->hub misses command_obs
        assert len(view.command_obs) == n_hops - 6  # 6 rounds, one hub return each
        assert len(view.data_obs) == n_hops - 6

    def test_per_device_counts_equal_in_ring(self):
        view = adversary.build_view(ring_trace())
        counts = {}
        for _, device, _ in view.command_obs + view.data_obs:
            counts[device] = counts.get(device, 0) + 1
        assert len(set(counts.values())) == 1

    def test_empty_trace(self):
        view = adversary.build_view(simnet.TraceLog(records=[]))
        assert view.command_obs == () and view.data_obs == ()


class TestRoundUniformity:
    def test_size_position_multiset_identical_across_rounds(self):
        trace = ring_trace(rounds=8)
        rounds = {}
        for rec in trace.records:
            rounds.setdefault(rec[4], []).append(rec[3])
        signatures = {r: tuple(sizes) for r, sizes in rounds.items()}
        assert len(set(signatures.values())) == 1


class TestDistinguish:
    def make_schedule_views(self):
        params = PARAMS
        texts = (
            "device 1\ndevice 2\ndevice 3\ndevice 4\npair 1 2\n",
            "device 1\ndevice 2\ndevice 3\ndevice 4\npair 4 3\npair 2 1\n",
        )
        views = []
        for seed, text in zip((10, 11), texts):
            config = simnet.SimConfig(
                n_physical=4, rounds=25, modulus_bits=64, seed=seed, jitter=40
            )
            plan = schedule.compile(
                schedule.parse_schedule_text(text),
                simnet.registry_for(config),
                params,
                simnet.predicted_forward_times(config),
                rng_seed=seed,
            )
            trace, _, _ = simnet.run(config, plan)
            views.append(adversary.build_view(trace))
        return views

    def test_view_against_itself(self):
        view = adversary.build_view(ring_trace())
        report = adversary.distinguish_schedules(view, view, CFG)
        assert report["verdict"] == "indistinguishable"
        for entry in report["tests"]:
            assert entry["p_value"] == 1.0
            assert set(entry) == {"test", "statistic", "p_value", "verdict"}

    def test_different_schedules_fail_to_reject(self):
        view_a, view_b = self.make_schedule_views()
        report = adversary.distinguish_schedules(view_a, view_b, CFG)
        assert report["verdict"] == "indistinguishable"

    def test_relabelled_ring_is_caught_by_links_only(self):
        # Swapping devices 1 and 2 keeps every size, instant and per-device
        # count, so only who sends to whom tells the runs apart.
        trace = ring_trace(rounds=20)
        swap = {1: 2, 2: 1}
        relabelled = simnet.TraceLog(
            records=[
                (t, swap.get(src, src), swap.get(dst, dst), size, r)
                for t, src, dst, size, r in trace.records
            ],
            config_fingerprint=trace.config_fingerprint,
        )
        report = adversary.distinguish_schedules(
            adversary.build_view(trace), adversary.build_view(relabelled), CFG
        )
        verdicts = {entry["test"]: entry["verdict"] for entry in report["tests"]}
        assert verdicts == {
            "frame-sizes-ks": adversary.FAIL_TO_REJECT,
            "inter-arrival-ks": adversary.FAIL_TO_REJECT,
            "endpoint-counts-chi2": adversary.FAIL_TO_REJECT,
            "link-counts-chi2": adversary.REJECT,
        }
        assert report["verdict"] == "distinguishable"

    def test_ring_vs_star_rejects(self):
        ring_view = adversary.build_view(ring_trace(rounds=8))
        star_config = simnet.SimConfig(
            n_physical=3,
            topology="star",
            rounds=8,
            modulus_bits=64,
            seed=2,
            command_interval=100_000,
        )
        star_trace, _, _ = simnet.run(
            star_config, script=[("set", 1, "on"), ("read", 2)]
        )
        report = adversary.distinguish_schedules(
            ring_view, adversary.build_view(star_trace), CFG
        )
        assert report["verdict"] == "distinguishable"

    def test_mismatched_geometry_errors(self):
        view_a = adversary.build_view(ring_trace())
        view_b = adversary.build_view(ring_trace(hop_latency=900))
        with pytest.raises(ValueError):
            adversary.distinguish_schedules(view_a, view_b, CFG)

    def test_missing_fingerprint_is_tolerated(self):
        view = adversary.build_view(ring_trace())
        bare = dataclasses.replace(view, config_fingerprint="")
        report = adversary.distinguish_schedules(view, bare, CFG)
        assert report["verdict"] == "indistinguishable"


class TestRecordAttack:
    def test_four_slots_at_chance(self):
        puzzles = make_puzzles([1000, 1050, 1100, 1150])
        accuracy = adversary.record_attack(puzzles, 1050, trials=1000, rng_seed=3)
        sigma = math.sqrt(0.25 * 0.75 / 1000)
        assert abs(accuracy - 0.25) <= 3 * sigma

    def test_single_slot_degenerate(self):
        puzzles = make_puzzles([500])
        assert adversary.record_attack(puzzles, 500, trials=40) == 1.0

    def test_equal_delays_hit_chance(self):
        puzzles = make_puzzles([800, 800, 800])
        assert adversary.record_attack(puzzles, 800, trials=40) == 1.0

    def test_absent_target_never_hits(self):
        puzzles = make_puzzles([500, 600])
        assert adversary.record_attack(puzzles, 999, trials=40) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            adversary.record_attack([], 1)
        with pytest.raises(ValueError):
            adversary.record_attack(make_puzzles([10]), 10, trials=0)

    def test_deterministic_given_seed(self):
        puzzles = make_puzzles([100, 200])
        a = adversary.record_attack(puzzles, 100, trials=60, rng_seed=9)
        b = adversary.record_attack(puzzles, 100, trials=60, rng_seed=9)
        assert a == b


class TestCloneAttack:
    def test_equal_rates_equal_counts(self):
        puzzle = make_puzzles([700])[0]
        adv, dev = adversary.clone_attack(puzzle)
        assert adv == dev == 700

    def test_trapdoor_control_condition(self, monkeypatch):
        puzzle = make_puzzles([64000])[0]
        calls = []
        real = crypto._modpow

        def counting(base, exp, mod):
            calls.append(1)
            return real(base, exp, mod)

        monkeypatch.setattr(crypto, "_modpow", counting)
        adv, dev = adversary.clone_attack(puzzle, phi=PARAMS.phi)
        assert adv == 0
        assert dev == 64000
        assert len(calls) == 2


class TestSnapshot:
    def test_mid_solve_snapshot_does_not_shrink_remaining_work(self):
        # physical access grabs (progress, residue); finishing still costs
        # t_hat - progress squarings, so total observed work is exactly t_hat
        puzzle = make_puzzles([1200])[0]
        registry = crypto.KeyRegistry.provision([1], seed=77)
        layout = simnet.layout_for(simnet.SimConfig(n_physical=1, modulus_bits=64))
        state = protocol.make_device(1, registry, layout)
        state.pending_puzzle = puzzle
        state.solve_residue = puzzle.a % puzzle.n

        protocol.device_tick(state, 500)
        assert state.solve_progress == 500

        remaining = puzzle.t_hat - state.solve_progress
        assert remaining == 700
        finish = crypto._square_chain(state.solve_residue, puzzle.n, remaining)
        expected = crypto.puzzle_fast_eval(puzzle, PARAMS.phi)
        assert finish == expected
