"""Unit tests for schedule compilation, linear extensions, and time bounds."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringveil import crypto, schedule


def brute_force_extensions(pairs, n):
    """Oracle: enumerate all n! permutations and keep the valid extensions."""
    valid = []
    for perm in itertools.permutations(range(1, n + 1)):
        pos = {d: i for i, d in enumerate(perm)}
        if all(pos[a] <= pos[b] for a, b in pairs):
            valid.append(list(perm))
    return valid


def make_order(n, pairs, states=None):
    return schedule.PartialOrder(
        devices=tuple(range(1, n + 1)), pairs=tuple(pairs), states=states or {}
    )


class TestLinearExtension:
    def test_two_chains(self):
        order = make_order(4, [(1, 2), (3, 4)])
        assert schedule.linear_extension(order, 4) == [1, 2, 3, 4]

    def test_no_constraints_is_identity(self):
        assert schedule.linear_extension(make_order(3, []), 3) == [1, 2, 3]

    def test_antisymmetry_violation_is_cycle(self):
        order = make_order(2, [(1, 2), (2, 1)])
        with pytest.raises(schedule.CycleError):
            schedule.linear_extension(order, 2)

    def test_reflexive_pair_ignored(self):
        order = make_order(2, [(1, 1)])
        assert schedule.linear_extension(order, 2) == [1, 2]

    def test_constraint_forces_reordering(self):
        order = make_order(3, [(3, 1)])
        assert schedule.linear_extension(order, 3) == [2, 3, 1]

    def test_unscheduled_devices_fill_ring(self):
        order = schedule.PartialOrder(devices=(2, 4), pairs=((4, 2),))
        assert schedule.linear_extension(order, 5) == [1, 3, 4, 2, 5]

    def test_device_beyond_capacity_rejected(self):
        order = schedule.PartialOrder(devices=(9,), pairs=())
        with pytest.raises(ValueError):
            schedule.linear_extension(order, 4)

    @settings(max_examples=80)
    @given(
        n=st.integers(1, 6),
        raw_pairs=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=6),
    )
    def test_matches_brute_force_oracle(self, n, raw_pairs):
        pairs = [(a, b) for a, b in raw_pairs if a <= n and b <= n]
        order = make_order(n, pairs)
        valid = brute_force_extensions(pairs, n)
        if not valid:
            with pytest.raises(schedule.CycleError):
                schedule.linear_extension(order, n)
        else:
            assert schedule.linear_extension(order, n) == min(valid)


class TestAssignTimeBounds:
    FWD = [10, 20, 30]

    def test_comparable_pair_spacing(self):
        order = make_order(3, [(1, 2)])
        bounds = schedule.assign_time_bounds(order, self.FWD, base_t_hat=100)
        # ring of 3, forward gap 10 between the pair: spacing (3-1)*10 = 20
        assert bounds[2] - bounds[1] >= 20

    def test_incomparable_devices_coincide(self):
        order = make_order(3, [])
        bounds = schedule.assign_time_bounds(order, self.FWD, base_t_hat=100)
        assert bounds[1] - bounds[3] == 20  # two hops apart, gap 10 each
        instants = {self.FWD[i - 1] + bounds[i] for i in (1, 2, 3)}
        assert len(instants) == 1

    def test_single_device_gets_base(self):
        order = schedule.PartialOrder(devices=(1,), pairs=())
        bounds = schedule.assign_time_bounds(order, [5], base_t_hat=777)
        assert bounds == {1: 777}

    def test_non_monotone_forward_times_rejected(self):
        with pytest.raises(ValueError):
            schedule.assign_time_bounds(make_order(2, []), [10, 10])

    def test_calibration_scales_counts(self):
        order = make_order(2, [])
        slow = schedule.assign_time_bounds(order, [10, 20], squarings_per_unit=1, base_t_hat=50)
        fast = schedule.assign_time_bounds(order, [10, 20], squarings_per_unit=3, base_t_hat=50)
        assert fast[1] - fast[2] == 3 * (slow[1] - slow[2])

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 6),
        raw_pairs=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=5),
        gap=st.integers(1, 50),
        base=st.integers(1, 500),
    )
    def test_bounds_satisfy_both_rules(self, n, raw_pairs, gap, base):
        pairs = [(a, b) for a, b in raw_pairs if a <= n and b <= n and a != b]
        order = make_order(n, pairs)
        forward_times = [gap * (i + 1) for i in range(n)]
        try:
            bounds = schedule.assign_time_bounds(order, forward_times, base_t_hat=base)
        except schedule.CycleError:
            return
        # the ring is fixed: device d forwards at forward_times[d - 1]
        forward = {d: forward_times[d - 1] for d in order.devices}
        assert all(t >= base for t in bounds.values())
        for a, b in pairs:
            assert bounds[b] - bounds[a] >= (n - 1) * (forward[b] - forward[a])
            assert forward[a] + bounds[a] < forward[b] + bounds[b]
            # either way round the ring, b finishes n forward gaps after a
            finish_gap = (forward[b] + bounds[b]) - (forward[a] + bounds[a])
            assert finish_gap >= n * abs(forward[b] - forward[a])
        free = [d for d in order.devices if d not in order.constrained_devices()]
        assert len({forward[d] + bounds[d] for d in free}) <= 1


PARAMS = crypto.gen_params(64, 2024)
REGISTRY = crypto.KeyRegistry.provision(range(1, 7), seed=11)


class TestCompile:
    FWD = [10, 20, 30, 40, 50, 60]

    def test_two_pair_schedule(self):
        order = make_order(4, [(1, 2), (3, 4)])
        plan = schedule.compile(order, REGISTRY, PARAMS, self.FWD[:4])
        assert len(plan.entries) == 4
        t = {e.device_id: e.t_hat for e in plan.entries}
        assert t[1] <= t[2]
        assert t[3] <= t[4]
        assert plan.comparable_count == 4

    def test_empty_order(self):
        order = schedule.PartialOrder(devices=(), pairs=())
        plan = schedule.compile(order, REGISTRY, PARAMS, self.FWD)
        assert plan.entries == ()
        assert plan.slot_length == 0

    def test_reflexive_only_pair(self):
        order = schedule.PartialOrder(devices=(1,), pairs=((1, 1),))
        plan = schedule.compile(order, REGISTRY, PARAMS, self.FWD)
        assert len(plan.entries) == 1
        assert plan.comparable_count == 0

    def test_cyclic_order_rejected(self):
        order = make_order(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(schedule.CycleError):
            schedule.compile(order, REGISTRY, PARAMS, self.FWD[:3])

    def test_over_capacity_rejected(self):
        order = make_order(4, [])
        with pytest.raises(ValueError):
            schedule.compile(order, REGISTRY, PARAMS, self.FWD[:2])

    def test_entries_unwrap_and_solve_to_commands(self):
        order = make_order(2, [(1, 2)], states={1: "on", 2: "off"})
        plan = schedule.compile(
            order, REGISTRY, PARAMS, self.FWD[:2], base_t_hat=4, rng_seed=3
        )
        for entry in plan.entries:
            blob = crypto.unwrap_for_device(entry.wrapped, REGISTRY.device_secret(entry.device_id))
            puzzle = crypto.puzzle_from_bytes(blob)
            assert puzzle == entry.puzzle
            solution = crypto.puzzle_solve(puzzle)
            state, device_id, _seq = schedule.decode_command(solution.command)
            assert device_id == entry.device_id
            assert state == order.state_of(entry.device_id)

    def test_one_seed_never_reuses_a_slot_key_and_nonce(self):
        # Each pair of orders draws one rng stream but gives some device a
        # different puzzle; its salt hashes the puzzle, so its slot key moves.
        sealed = {}
        orders = (
            make_order(3, [(1, 2)]),
            make_order(3, [(1, 3)]),
            make_order(3, [(1, 2)], states={1: "off"}),
        )
        for order in orders:
            plan = schedule.compile(order, REGISTRY, PARAMS, self.FWD[:3], rng_seed=7)
            for entry in plan.entries:
                salt = entry.wrapped[: crypto.WRAP_SALT_BYTES]
                frame = entry.wrapped[crypto.WRAP_SALT_BYTES :]
                key = crypto._slot_key(REGISTRY.device_secret(entry.device_id), salt)
                nonce = frame[: crypto.NONCE_BYTES]
                plaintext = crypto.sym_open(frame, key)
                assert sealed.setdefault((key, nonce), plaintext) == plaintext
        # devices 2 and 3 get one puzzle each under the first and last orders
        assert len(sealed) == 7

    def test_deterministic_for_fixed_seed(self):
        order = make_order(3, [(1, 3)])
        a = schedule.compile(order, REGISTRY, PARAMS, self.FWD[:3], rng_seed=7)
        b = schedule.compile(order, REGISTRY, PARAMS, self.FWD[:3], rng_seed=7)
        assert a == b

    def test_validity_deadline_spans_two_slots(self):
        order = make_order(2, [])
        plan = schedule.compile(order, REGISTRY, PARAMS, self.FWD[:2], issued_at=500)
        assert plan.entries[0].puzzle.t_val == 500 + 2 * plan.slot_length


class TestSlotHelpers:
    def test_slot_length_is_max_t_hat(self):
        order = make_order(3, [])
        plan = schedule.compile(order, REGISTRY, PARAMS, [3, 5, 7], base_t_hat=3)
        assert plan.squarings_per_unit == 1
        assert plan.slot_length == max(e.t_hat for e in plan.entries)

    def test_slot_length_empty_plan(self):
        plan = schedule.compile(
            schedule.PartialOrder(devices=(), pairs=()), REGISTRY, PARAMS, [1, 2]
        )
        assert plan.slot_length == 0


class TestScheduleText:
    GOOD = """
    # lamp then lock, sensor free-floating
    device 1
    device 2
    device 3
    pair 1 2
    state 1 on
    state 2 off
    """

    def test_parse_well_formed(self):
        order = schedule.parse_schedule_text(self.GOOD)
        assert order.devices == (1, 2, 3)
        assert order.pairs == ((1, 2),)
        assert order.state_of(1) == "on"
        assert order.state_of(2) == "off"
        assert order.state_of(3) == "on"  # default

    def test_unknown_keyword_carries_line_number(self):
        with pytest.raises(schedule.ScheduleParseError) as err:
            schedule.parse_schedule_text("device 1\nfrobnicate 2\n")
        assert err.value.line_no == 2

    def test_pair_before_declaration_rejected(self):
        with pytest.raises(schedule.ScheduleParseError):
            schedule.parse_schedule_text("device 1\npair 1 2\ndevice 2\n")

    def test_bad_state_rejected(self):
        with pytest.raises(schedule.ScheduleParseError):
            schedule.parse_schedule_text("device 1\nstate 1 dim\n")

    def test_duplicate_device_rejected(self):
        with pytest.raises(schedule.ScheduleParseError):
            schedule.parse_schedule_text("device 1\ndevice 1\n")

    def test_non_integer_id_rejected(self):
        with pytest.raises(schedule.ScheduleParseError):
            schedule.parse_schedule_text("device lamp\n")

    def test_empty_text_gives_empty_order(self):
        order = schedule.parse_schedule_text("\n# nothing\n")
        assert order.devices == ()


class TestPlanSerialization:
    def test_json_roundtrip(self):
        order = make_order(3, [(1, 2)])
        plan = schedule.compile(order, REGISTRY, PARAMS, [10, 20, 30], rng_seed=5)
        assert schedule.plan_from_json(schedule.plan_to_json(plan)) == plan

    def test_v1_document_with_the_fixed_ring_is_refused(self):
        plan = schedule.compile(make_order(3, [(2, 1)]), REGISTRY, PARAMS, [10, 20, 30])
        doc = json.loads(schedule.plan_to_json(plan))
        assert doc["format"] == "ringveil-plan-v3" and doc.pop("ring_size") == 3
        doc.update(format="ringveil-plan-v1", ring_order=[1, 2, 3])
        with pytest.raises(ValueError, match="slots use the retired wrap; recompile"):
            schedule.plan_from_json(json.dumps(doc))

    def test_v1_document_with_a_derived_ring_is_refused(self):
        plan = schedule.compile(make_order(3, [(2, 1)]), REGISTRY, PARAMS, [10, 20, 30])
        doc = json.loads(schedule.plan_to_json(plan))
        del doc["ring_size"]
        doc.update(format="ringveil-plan-v1", ring_order=[2, 1, 3])
        with pytest.raises(ValueError, match="slots use the retired wrap; recompile"):
            schedule.plan_from_json(json.dumps(doc))

    def test_v2_document_is_refused(self):
        plan = schedule.compile(make_order(3, [(2, 1)]), REGISTRY, PARAMS, [10, 20, 30])
        doc = dict(json.loads(schedule.plan_to_json(plan)), format="ringveil-plan-v2")
        with pytest.raises(ValueError, match="slots use the retired wrap; recompile"):
            schedule.plan_from_json(json.dumps(doc))

    def test_device_with_two_entries_is_refused(self):
        plan = schedule.compile(make_order(3, [(1, 2)]), REGISTRY, PARAMS, [10, 20, 30])
        doc = json.loads(schedule.plan_to_json(plan))
        doc["entries"].append(dict(doc["entries"][1], device_id=1))
        with pytest.raises(ValueError, match="device 1 has more than one plan entry"):
            schedule.plan_from_json(json.dumps(doc))

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            schedule.plan_from_json('{"format": "something-else"}')
