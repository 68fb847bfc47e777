"""Unit tests for the owner/hub/device state machines."""

import dataclasses
import random

import pytest

from ringveil import crypto, protocol, schedule, token

PARAMS = crypto.gen_params(64, 77)
N = 4
REGISTRY = crypto.KeyRegistry.provision(range(1, N + 1), seed=21)
LAYOUT = token.TokenLayout(
    n_devices=N,
    slot_size=token.max_wrapped_slot_size(PARAMS.bit_length) + 2,
    data_capacity=N * 64,
)
FWD = [10, 20, 30, 40]


def build_plan(pairs=((1, 2),), base_t_hat=4, **kwargs):
    order = schedule.PartialOrder(devices=tuple(range(1, N + 1)), pairs=pairs)
    return schedule.compile(
        order, REGISTRY, PARAMS, FWD, base_t_hat=base_t_hat, rng_seed=13, **kwargs
    )


def make_ring(rng_seed=0):
    hub = protocol.make_hub(REGISTRY, LAYOUT, rng_seed=rng_seed)
    devices = [protocol.make_device(i, REGISTRY, LAYOUT) for i in range(1, N + 1)]
    return hub, devices


def run_round(hub, devices, now, tick_budget=0):
    """Drive one circulation with a fixed per-hop time step of 5 us; returns
    the time after it."""
    frame = protocol.hub_emit_token(hub)
    t = now
    for device in devices:
        t += 5
        frame = protocol.device_on_token(device, frame, t)
    protocol.hub_on_token(hub, frame)
    if tick_budget:
        for device in devices:
            t += 1
            protocol.device_tick(device, tick_budget, now=t)
    return t + 5


class TestOrders:
    def test_honest_order_accepted(self):
        order = protocol.owner_create_order(build_plan(), REGISTRY)
        assert protocol.hub_verify_order(order, REGISTRY.owner_keypair[1])

    def test_command_tamper_rejected(self):
        order = protocol.owner_create_order(build_plan(), REGISTRY)
        commands = bytearray(order.commands)
        commands[-1] ^= 0x01
        tampered = dataclasses.replace(order, commands=bytes(commands))
        assert not protocol.hub_verify_order(tampered, REGISTRY.owner_keypair[1])

    def test_refreshed_digest_fails_signature(self):
        order = protocol.owner_create_order(build_plan(), REGISTRY)
        commands = bytearray(order.commands)
        commands[-1] ^= 0x01
        fixed_digest = protocol._order_digest(order.owner_id, order.hub_id, bytes(commands))
        tampered = dataclasses.replace(order, commands=bytes(commands), digest=fixed_digest)
        assert not protocol.hub_verify_order(tampered, REGISTRY.owner_keypair[1])

    def test_foreign_signing_key_rejected(self):
        plan = build_plan()
        stranger = crypto.KeyRegistry.provision(range(1, N + 1), seed=999)
        order = protocol.owner_create_order(plan, stranger)
        assert not protocol.hub_verify_order(order, REGISTRY.owner_keypair[1])

    def test_empty_plan_order_is_valid(self):
        empty = schedule.compile(
            schedule.PartialOrder(devices=(), pairs=()), REGISTRY, PARAMS, FWD
        )
        order = protocol.owner_create_order(empty, REGISTRY)
        assert protocol.hub_verify_order(order, REGISTRY.owner_keypair[1])


class TestHubEmission:
    def test_padding_round_has_constant_size(self):
        hub, _ = make_ring()
        sizes = set()
        for i in range(5):
            frame = protocol.hub_emit_token(hub)
            sizes.add(len(frame))
        assert sizes == {LAYOUT.frame_size}

    def test_plan_delivered_exactly_once(self):
        hub, devices = make_ring()
        plan = build_plan()
        order = protocol.owner_create_order(plan, REGISTRY)
        assert protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])

        frame1 = protocol.hub_emit_token(hub)
        d1 = devices[0]
        protocol.device_on_token(d1, frame1, 5)
        assert d1.pending_puzzle == plan.entry_for(1).puzzle

        frame2 = protocol.hub_emit_token(hub)
        protocol.device_on_token(d1, frame2, 105)
        # second round is padding: the stored puzzle is unchanged
        assert d1.pending_puzzle == plan.entry_for(1).puzzle

    def test_schedule_and_padding_frames_same_length(self):
        hub, _ = make_ring()
        order = protocol.owner_create_order(build_plan(), REGISTRY)
        protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])
        carrying = protocol.hub_emit_token(hub)
        padding = protocol.hub_emit_token(hub)
        assert len(carrying) == len(padding) == LAYOUT.frame_size

    def test_rejected_order_not_stored(self):
        hub, _ = make_ring()
        order = protocol.owner_create_order(build_plan(), REGISTRY)
        assert not protocol.hub_accept_order(hub, order, REGISTRY.hub_keypair[1])
        assert hub.pending_plan is None

    def test_order_naming_a_device_twice_not_stored(self):
        hub, _ = make_ring()
        plan = build_plan()
        twice = dataclasses.replace(plan.entries[1], device_id=plan.entries[0].device_id)
        order = protocol.owner_create_order(
            dataclasses.replace(plan, entries=plan.entries + (twice,)), REGISTRY
        )
        assert not protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])
        assert hub.pending_plan is None


class TestDeviceOnToken:
    def test_counter_decrement_and_forward(self):
        hub, devices = make_ring()
        frame = protocol.hub_emit_token(hub)
        forwarded = protocol.device_on_token(devices[0], frame, 5)
        assert devices[0].last_counter == N - 1
        assert len(forwarded) == LAYOUT.frame_size
        parsed = token.token_parse(forwarded, REGISTRY.ring_key, LAYOUT)
        assert parsed.counter == N - 1

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda f: f[:20] + bytes([f[20] ^ 0x40]) + f[21:], crypto.AuthenticationError),
            (lambda f: f[:-1], crypto.FramingError),
            (lambda f: f + b"\x00", crypto.FramingError),
        ],
        ids=["tampered", "short", "long"],
    )
    def test_bad_frame_raises_and_leaves_state_alone(self, damage, error):
        hub, devices = make_ring()
        now = run_round(hub, devices, 0)
        device = devices[2]
        protocol.enqueue_upload(device, b"queued reading")
        before = (
            device.seal_count,
            device.last_token_id,
            list(device.upload_queue),
        )
        frame = protocol.hub_emit_token(hub)
        with pytest.raises(error):
            protocol.device_on_token(device, damage(frame), now + 5)
        after = (
            device.seal_count,
            device.last_token_id,
            list(device.upload_queue),
        )
        assert after == before

    def test_hop_edits_only_counter_toggle_and_own_subfield(self):
        hub, devices = make_ring()
        device = devices[1]
        protocol.enqueue_upload(device, b"one")
        protocol.enqueue_upload(device, b"two")
        now = 0
        now = run_round(hub, devices, now)  # device 2 raises its bit
        frame = protocol.hub_emit_token(hub)  # grant round
        frame = protocol.device_on_token(devices[0], frame, now + 5)
        before = token.token_parse(frame, REGISTRY.ring_key, LAYOUT)
        frame = protocol.device_on_token(device, frame, now + 10)
        after = token.token_parse(frame, REGISTRY.ring_key, LAYOUT)

        start, end = LAYOUT.subfield_bounds(device.slot_index)
        allowed = set(range(12, 16))  # counter
        allowed.add(16 + device.slot_index // 8)  # its toggle byte
        allowed.update(range(LAYOUT.data_at + start, LAYOUT.data_at + end))
        changed = {i for i, (a, b) in enumerate(zip(before.buf, after.buf)) if a != b}
        assert changed <= allowed
        assert changed & set(range(LAYOUT.data_at + start, LAYOUT.data_at + end))
        assert after.counter == before.counter - 1
        assert after.command_field == before.command_field

    def test_duplicate_token_id_not_reprocessed(self):
        hub, devices = make_ring()
        order = protocol.owner_create_order(build_plan(), REGISTRY)
        protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])
        frame = protocol.hub_emit_token(hub)
        device = devices[0]
        fwd1 = protocol.device_on_token(device, frame, 5)
        protocol.device_tick(device, 2, now=6)
        progress_before = device.solve_progress
        protocol.device_on_token(device, fwd1, 7)
        assert device.solve_progress == progress_before  # not reset by the replay

    def test_expired_validity_discards_but_forwards(self):
        hub, devices = make_ring()
        plan = build_plan()
        order = protocol.owner_create_order(plan, REGISTRY)
        protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])
        frame = protocol.hub_emit_token(hub)
        late = plan.entries[0].puzzle.t_val + protocol.DEFAULT_T_DIFF + 1
        forwarded = protocol.device_on_token(devices[0], frame, late)
        assert devices[0].pending_puzzle is None
        assert len(forwarded) == LAYOUT.frame_size
        # control: the same frame on time yields the puzzle
        on_time = protocol.make_device(1, REGISTRY, LAYOUT)
        protocol.device_on_token(on_time, frame, late - 1)
        assert on_time.pending_puzzle == plan.entries[0].puzzle

    def test_slot_wrapped_under_a_foreign_key_is_discarded(self):
        # Only the owner shares device 1's static key: a slot that anyone
        # else wraps, the hub included, is padding to the device.
        puzzle = build_plan().entries[0].puzzle
        foreign = crypto.KeyRegistry.provision(range(1, N + 1), seed=999)
        for registry, expected in ((foreign, None), (REGISTRY, puzzle)):
            hub, devices = make_ring()
            hub.pending_plan = {
                1: crypto.wrap_for_device(
                    crypto.puzzle_to_bytes(puzzle), registry.device_secret(1), random.Random(0)
                )
            }
            protocol.device_on_token(devices[0], protocol.hub_emit_token(hub), 5)
            assert devices[0].pending_puzzle == expected

    def test_padding_slot_leaves_no_puzzle(self):
        hub, devices = make_ring()
        frame = protocol.hub_emit_token(hub)
        protocol.device_on_token(devices[2], frame, 5)
        assert devices[2].pending_puzzle is None


class TestDeviceTick:
    def make_loaded_device(self, t_hat=5):
        hub, devices = make_ring()
        plan = build_plan(pairs=(), base_t_hat=t_hat)
        order = protocol.owner_create_order(plan, REGISTRY)
        protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])
        frame = protocol.hub_emit_token(hub)
        device = devices[N - 1]  # last scheduled device gets exactly base t_hat
        protocol.device_on_token(device, frame, 5)
        assert device.pending_puzzle is not None
        return device, plan

    def test_budgeted_ticks_accumulate(self):
        device, _ = self.make_loaded_device(t_hat=5)
        protocol.device_tick(device, 3, now=10)
        assert device.actuated is None
        protocol.device_tick(device, 3, now=20)
        assert device.actuated is not None

    def test_tick_without_puzzle_is_noop(self):
        hub, devices = make_ring()
        device = devices[0]
        protocol.device_tick(device, 100, now=1)
        assert device.actuated is None and device.solve_progress == 0

    def test_actuation_enqueues_matching_report(self):
        device, plan = self.make_loaded_device(t_hat=4)
        protocol.device_tick(device, 100, now=42)
        assert device.actuated[1] == 42
        assert len(device.upload_queue) == 1
        record = device.upload_queue[0]
        report = protocol.report_from_bytes(record[2:])
        entry = plan.entry_for(device.device_id)
        assert report.t_hat == entry.t_hat
        assert report.solution == crypto.puzzle_fast_eval(entry.puzzle, PARAMS.phi)

    def test_report_serialization_roundtrip(self):
        report = protocol.ExecutionReport(device_id=3, t_com=12345, t_hat=99, solution=2**64 - 5)
        assert protocol.report_from_bytes(protocol.report_to_bytes(report)) == report


class TestUploadFlow:
    def test_request_grant_upload_recover(self):
        hub, devices = make_ring()
        payload = b"sensor says 21.5C"
        protocol.enqueue_upload(devices[1], payload)

        now = 0
        now = run_round(hub, devices, now)  # round 1: device 2 raises its bit
        assert hub.requests == {1}
        now = run_round(hub, devices, now)  # round 2: grant and upload
        assert hub.recovered == [(2, 2, payload)]
        assert hub.requests == set()

    def test_full_width_upload_recovered_byte_exactly(self):
        hub, devices = make_ring()
        start, end = LAYOUT.subfield_bounds(3)
        payload = bytes(range(256))[: end - start - 2]  # fills the sub-field
        protocol.enqueue_upload(devices[3], payload)
        now = 0
        for _ in range(2):
            now = run_round(hub, devices, now)
        assert hub.recovered == [(2, 4, payload)]

    def test_oversized_record_rejected_at_enqueue(self):
        _, devices = make_ring()
        with pytest.raises(protocol.ProtocolError):
            protocol.enqueue_upload(devices[0], b"x" * LAYOUT.data_capacity)

    def test_every_request_of_a_round_is_granted_in_the_next(self):
        hub, devices = make_ring()
        for device in devices[:3]:
            protocol.enqueue_upload(device, b"reading from %d" % device.device_id)
        now = run_round(hub, devices, 0)  # round 1: three devices raise their bits
        assert hub.requests == {0, 1, 2}
        run_round(hub, devices, now)  # round 2: all three are granted
        assert hub.recovered == [(2, d, b"reading from %d" % d) for d in (1, 2, 3)]
        assert hub.requests == set()

    def test_two_records_drain_over_rounds(self):
        hub, devices = make_ring()
        protocol.enqueue_upload(devices[0], b"first")
        protocol.enqueue_upload(devices[0], b"second")
        now = 0
        for _ in range(5):
            now = run_round(hub, devices, now)
        assert [payload for _, _, payload in hub.recovered] == [b"first", b"second"]


class TestEndToEnd:
    def drive(self, pairs, rounds=4):
        hub, devices = make_ring()
        plan = build_plan(pairs=pairs, base_t_hat=4)
        order = protocol.owner_create_order(plan, REGISTRY)
        assert protocol.hub_accept_order(hub, order, REGISTRY.owner_keypair[1])
        now = 0
        for _ in range(rounds):
            now = run_round(hub, devices, now, tick_budget=10_000)
        return hub, devices, plan

    def test_honest_run_verifies(self):
        hub, devices, plan = self.drive(pairs=((1, 2), (3, 4)))
        reports = protocol.collect_reports(hub)
        assert len(reports) == N
        assert protocol.owner_verify_execution(reports, PARAMS, plan)

    def test_swapped_completion_times_rejected(self):
        hub, _, plan = self.drive(pairs=((1, 2),))
        reports = protocol.collect_reports(hub)
        swapped = []
        by_id = {r.device_id: r for r in reports}
        t1, t2 = by_id[1].t_com, by_id[2].t_com
        for r in reports:
            if r.device_id == 1:
                swapped.append(dataclasses.replace(r, t_com=t2 + 1))
            elif r.device_id == 2:
                swapped.append(dataclasses.replace(r, t_com=t1))
            else:
                swapped.append(r)
        assert not protocol.owner_verify_execution(swapped, PARAMS, plan)

    def test_forged_solution_rejected(self):
        hub, _, plan = self.drive(pairs=((1, 2),))
        reports = protocol.collect_reports(hub)
        forged = [
            dataclasses.replace(r, solution=(r.solution + 1) % PARAMS.n)
            if r.device_id == 1
            else r
            for r in reports
        ]
        assert not protocol.owner_verify_execution(forged, PARAMS, plan)

    def test_unknown_device_rejected(self):
        hub, _, plan = self.drive(pairs=((1, 2),))
        reports = protocol.collect_reports(hub)
        reports.append(dataclasses.replace(reports[0], device_id=99))
        assert not protocol.owner_verify_execution(reports, PARAMS, plan)

    def test_pair_naming_a_device_without_an_entry_rejected(self):
        hub, _, plan = self.drive(pairs=((1, 2),))
        reports = protocol.collect_reports(hub)
        dangling = dataclasses.replace(plan, pairs=((1, 9),))
        assert not protocol.owner_verify_execution(reports, PARAMS, dangling)

    def test_missing_report_rejected(self):
        hub, _, plan = self.drive(pairs=((1, 2),))
        reports = protocol.collect_reports(hub)[:-1]
        assert not protocol.owner_verify_execution(reports, PARAMS, plan)
