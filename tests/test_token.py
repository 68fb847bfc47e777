"""Unit tests for token framing, toggle bits, and XOR data concealment."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ringveil import crypto, token

KEY = bytes(range(32))
LAYOUT = token.TokenLayout(n_devices=4, slot_size=16, data_capacity=32)


def random_token(rng, layout=LAYOUT, **overrides):
    fields = dict(
        token_id=rng.getrandbits(60),
        round=rng.getrandbits(20),
        counter=rng.randrange(-5, 100),
        toggle_bits=bytes(layout.toggle_bytes),
        command_field=tuple(rng.randbytes(layout.slot_size) for _ in range(layout.n_devices)),
        data_field=rng.randbytes(layout.data_capacity),
    )
    fields.update(overrides)
    return token.Token(**fields, layout=layout)


class TestLayout:
    def test_frame_size_formula(self):
        assert LAYOUT.plaintext_size == 16 + 1 + 4 * 16 + 32
        assert LAYOUT.frame_size == LAYOUT.plaintext_size + 28

    def test_subfield_partition_covers_data_field(self):
        spans = [LAYOUT.subfield_bounds(i) for i in range(4)]
        assert spans == [(0, 8), (8, 16), (16, 24), (24, 32)]

    def test_indivisible_subfields_rejected(self):
        with pytest.raises(ValueError):
            token.TokenLayout(n_devices=3, slot_size=8, data_capacity=32)

    def test_slot_bound_fits_a_real_wrapped_puzzle(self):
        params = crypto.gen_params(64, 4)
        registry = crypto.KeyRegistry.provision([1], seed=1)
        puzzle = crypto.puzzle_create(
            params, 3, 5, b"\x01" + bytes(4) + bytes(8), params.n - 1, t_val=2**40
        )
        wrapped = crypto.wrap_for_device(
            crypto.puzzle_to_bytes(puzzle), registry.device_secret(1), random.Random(0)
        )
        assert len(wrapped) <= token.max_wrapped_slot_size(64)


class TestTokenCodec:
    def test_roundtrip(self):
        t = random_token(random.Random(1))
        frame = token.token_build(t, KEY, nonce=9)
        assert token.token_parse(frame, KEY, LAYOUT) == t

    def test_constant_frame_size(self):
        rng = random.Random(2)
        sizes = {
            len(token.token_build(random_token(rng), KEY, nonce=i))
            for i in range(20)
        }
        assert sizes == {LAYOUT.frame_size}

    def test_schedule_vs_padding_same_length(self):
        rng = random.Random(3)
        carrying = random_token(rng, command_field=tuple(b"\xaa" * 16 for _ in range(4)))
        padding = random_token(rng)
        a = token.token_build(carrying, KEY, nonce=1)
        b = token.token_build(padding, KEY, nonce=2)
        assert len(a) == len(b)

    def test_wrong_length_is_framing_error(self):
        t = random_token(random.Random(4))
        frame = token.token_build(t, KEY, nonce=1)
        with pytest.raises(crypto.FramingError):
            token.token_parse(frame[:-1], KEY, LAYOUT)

    def test_tampering_is_authentication_error(self):
        frame = bytearray(token.token_build(random_token(random.Random(5)), KEY, nonce=1))
        frame[20] ^= 0x40
        with pytest.raises(crypto.AuthenticationError):
            token.token_parse(bytes(frame), KEY, LAYOUT)

    def test_misshapen_token_rejected_at_build(self):
        with pytest.raises(ValueError):
            random_token(random.Random(6), command_field=(b"short",) * 4)

    def test_counter_survives_negative_values(self):
        t = random_token(random.Random(7), counter=-3)
        frame = token.token_build(t, KEY, nonce=1)
        assert token.token_parse(frame, KEY, LAYOUT).counter == -3


@st.composite
def layout_and_fields(draw):
    n = draw(st.integers(1, 20))
    slot_size = draw(st.integers(1, 40))
    capacity = n * draw(st.integers(0, 12))
    layout = token.TokenLayout(n, slot_size, capacity)
    fields = dict(
        token_id=draw(st.integers(0, 2**64 - 1)),
        round=draw(st.integers(0, 2**32 - 1)),
        counter=draw(st.integers(-(2**31), 2**31 - 1)),
        toggle_bits=draw(st.binary(min_size=layout.toggle_bytes, max_size=layout.toggle_bytes)),
        command_field=tuple(
            draw(st.binary(min_size=slot_size, max_size=slot_size)) for _ in range(n)
        ),
        data_field=draw(st.binary(min_size=capacity, max_size=capacity)),
    )
    return layout, fields


class TestTokenBuffer:
    @settings(max_examples=60, deadline=None)
    @given(layout_and_fields(), st.integers(0, 2**40))
    def test_roundtrip_over_random_layouts(self, case, nonce):
        layout, fields = case
        t = token.Token(**fields, layout=layout)
        frame = token.token_build(t, KEY, nonce=nonce)
        assert len(frame) == layout.frame_size
        parsed = token.token_parse(frame, KEY, layout)
        assert parsed == t
        assert {k: getattr(parsed, k) for k in fields} == fields

    def test_layout_checks_every_slot_at_construction(self):
        fields = random_token(random.Random(13))
        slots = list(fields.command_field)
        slots[2] = slots[2][:-1]
        with pytest.raises(ValueError, match="slot 2"):
            token.Token(
                token_id=1, round=1, counter=0, toggle_bits=bytes(1),
                command_field=tuple(slots), data_field=fields.data_field, layout=LAYOUT,
            )

    def test_in_place_edits_touch_only_their_bytes(self):
        t = random_token(random.Random(15))
        t = token.token_parse(token.token_build(t, KEY, nonce=1), KEY, LAYOUT)
        before = bytes(t.buf)
        t.counter -= 1
        t.set_toggle(2, True)
        t.xor_subfield(1, b"\xff" * 8)
        changed = {i for i, (a, b) in enumerate(zip(before, t.buf)) if a != b}
        start = LAYOUT.data_at + 8
        assert changed <= set(range(12, 17)) | set(range(start, start + 8))
        assert token.toggle_read(t) == {2}
        assert t.subfield(1) == token.data_overwrite(before[start : start + 8], b"\xff" * 8)
        with pytest.raises(ValueError):
            t.xor_subfield(1, b"\xff" * 7)


class TestDataConcealment:
    def test_known_xor(self):
        assert token.data_overwrite(b"\xa5", b"\x3c") == b"\x99"
        assert token.data_overwrite(b"\x99", b"\xa5") == b"\x3c"

    def test_zero_payload_passes_random_through(self):
        r = bytes(range(16))
        assert token.data_overwrite(r, bytes(16)) == r

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            token.data_overwrite(b"\x00\x01", b"\x00")

    @settings(max_examples=30)
    @given(st.binary(min_size=0, max_size=256), st.integers(0, 2**32))
    def test_roundtrip_involution(self, generated, seed):
        r = random.Random(seed).randbytes(len(generated))
        assert token.data_overwrite(token.data_overwrite(r, generated), r) == generated

    def test_overwritten_field_stays_uniform(self):
        # XOR with uniform random bytes should leave the byte histogram flat
        # even when the hidden payload is maximally structured.
        rng = random.Random(99)
        observed = [0] * 256
        for _ in range(200):
            r = rng.randbytes(64)
            o = token.data_overwrite(r, b"\x00" * 64)
            for b in o:
                observed[b] += 1
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.01


class TestNonce:
    def test_build_requires_a_nonce(self):
        with pytest.raises(TypeError):
            token.token_build(random_token(random.Random(13)), KEY)


class TestToggles:
    def test_set_then_read(self):
        t = random_token(random.Random(8), layout=token.TokenLayout(8, 4, 8))
        assert token.toggle_read(t) == set()
        t.set_toggle(2, True)
        assert token.toggle_read(t) == {2}

    def test_set_is_idempotent(self):
        t = random_token(random.Random(9))
        t.set_toggle(1, True)
        t.set_toggle(1, True)
        assert token.toggle_read(t) == {1}

    def test_clear_removes_grant(self):
        t = random_token(random.Random(10))
        t.set_toggle(3, True)
        t.set_toggle(3, False)
        assert token.toggle_read(t) == set()

    def test_index_out_of_range(self):
        t = random_token(random.Random(11))
        with pytest.raises(ValueError):
            t.set_toggle(4, True)
        with pytest.raises(ValueError):
            t.set_toggle(-1, True)

    def test_partial_final_byte_bounds(self):
        layout = token.TokenLayout(n_devices=5, slot_size=4, data_capacity=10)
        t = random_token(random.Random(12), layout=layout)
        t.set_toggle(4, True)
        assert token.toggle_read(t) == {4}
        with pytest.raises(ValueError):
            t.set_toggle(5, True)
