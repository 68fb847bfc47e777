"""Every importable squaring-kernel backend against the pure-Python reference."""

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringveil._kernel import pure

BACKENDS = [pure]
try:
    from ringveil._kernel import _seqsquare
except ImportError:  # extension not built: only the reference runs
    pass
else:
    BACKENDS.append(_seqsquare)

# Case ids name the implementation, pure Python or the compiled Montgomery
# extension, and stay fixed when the extension's BACKEND string changes.
backends = pytest.mark.parametrize(
    "backend", BACKENDS, ids=lambda b: "pure" if b is pure else "montgomery-c"
)

# 63/64/65 bits straddle the one-limb path; 127-129 the two-limb boundary;
# 4097 and 8192 bits take moduli past 64 limbs.
WIDTHS = [2, 3, 8, 32, 63, 64, 65, 127, 128, 129, 256, 512, 1024, 2048, 4097, 8192]
EDGE_MODULI = [2, 3, 4, 2**63 - 1, 2**63 + 1, 2**64 - 59, 2**64 - 1, 2**64,
               2**64 + 1, 2**65 - 1, 2**128 - 1, 2**2048 - 1]


@st.composite
def moduli(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(EDGE_MODULI))
    width = draw(st.sampled_from(WIDTHS))
    n = draw(st.integers(2 ** (width - 1), 2**width - 1))
    return n | 1 if draw(st.booleans()) else max(n & ~1, 2)


@st.composite
def values(draw, n):
    edge = st.sampled_from([0, 1, 2, -1, n - 1, n, n + 1, 2 * n, -n - 1])
    return draw(st.one_of(edge, st.integers(-4 * n, 4 * n)))


def outcome(fn, *args):
    """The result, or the type of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@backends
@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=moduli(), steps=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 400)))
def test_square_chain_matches_pure(backend, data, n, steps):
    value = data.draw(values(n))
    assert backend.square_chain(value, n, steps) == pure.square_chain(value, n, steps)


@backends
@pytest.mark.parametrize(
    "n",
    [2**61 - 1, 2**64 - 59, 2**128 - 159, 2**1024 - 105, 2**64 - 2],
    ids=["2^61-1", "2^64-59", "2^128-159", "2^1024-105", "2^64-2"],
)
def test_long_chains_match_pure(backend, n):
    # 70,000 steps cross any internal batch boundary of the compiled loop
    steps = 70_000 if n.bit_length() <= 128 else 3_000
    assert backend.square_chain(3, n, steps) == pure.square_chain(3, n, steps)


@backends
@pytest.mark.parametrize("p,e", [(3, 2), (3, 40), (3, 80), (5, 110), (7, 730)])
def test_values_whose_square_vanishes(backend, p, e):
    # v * v == 0 mod n, so a Montgomery product can land exactly on n
    n, v = p**e, p ** (e // 2)
    assert [backend.square_chain(v, n, steps) for steps in (0, 1, 2, 5)] == [v, 0, 0, 0]
    assert backend.modpow(v, 3, n) == 0


@backends
@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(moduli(), st.sampled_from([1, 0, -7, -(2**64) - 1])),
    exp=st.one_of(
        st.sampled_from([0, 1, 2, -1, -2]),
        st.integers(0, 2**64),
        st.integers(0, 2**2100),
        st.integers(2**2100, 2**2400),  # wider than every modulus up to 2048 bits
        st.integers(-(2**70), -1),
    ),
)
def test_modpow_matches_builtin_pow(backend, data, n, exp):
    base = data.draw(values(abs(n) + 1))
    assert outcome(backend.modpow, base, exp, n) == outcome(pow, base, exp, n)


@backends
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_signal_handler_interrupts_long_chain(backend):
    # Run to the end, this chain takes tens of seconds; the handler's exception
    # must surface within one batch of squarings after the alarm.
    class Alarm(Exception):
        pass

    def on_alarm(signum, frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    try:
        with pytest.raises(Alarm):
            backend.square_chain(3, 2**2048 - 1, 20_000_000)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 5


@backends
@pytest.mark.parametrize("steps,modulus", [(-1, 7), (-5, 2**64 - 1), (3, 1), (3, 0), (0, -9)])
def test_square_chain_value_errors(backend, steps, modulus):
    with pytest.raises(ValueError):
        backend.square_chain(5, modulus, steps)


@backends
def test_square_chain_keyword_arguments(backend):
    assert backend.square_chain(value=3, modulus=2**64 - 59, steps=5) == pure.square_chain(
        3, 2**64 - 59, 5
    )


def test_pure_fallback_when_extension_blocked():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = """
import sys
sys.modules["ringveil._kernel._seqsquare"] = None
from ringveil import _kernel, crypto
assert _kernel.BACKEND == "pure", _kernel.BACKEND
params = crypto.gen_params(64, 11)
puzzle = crypto.puzzle_create(params, 3, 500, b"on", 12345, 0)
solution = crypto.puzzle_solve(puzzle)
assert solution.command == b"on" and solution.squarings_performed == 500
residue = crypto.puzzle_fast_eval(puzzle, params.phi)
assert (puzzle.e_k - residue) % puzzle.n == solution.key

# The owner's audit runs the CRT trapdoor through the pure kernel too.
from dataclasses import replace
from ringveil import protocol, schedule, simnet
config = simnet.SimConfig(n_physical=3, rounds=14, modulus_bits=64, seed=7)
order = schedule.parse_schedule_text("device 1\\ndevice 2\\ndevice 3\\npair 1 2\\n")
plan = schedule.compile(order, simnet.registry_for(config), params,
                        simnet.predicted_forward_times(config), rng_seed=5,
                        squarings_per_unit=config.squarings_per_tick)
_trace, reports, _stats = simnet.run(config, plan)
assert len(reports) == 3, reports
assert protocol.owner_verify_execution(reports, params, plan)
forged = [replace(reports[0], solution=reports[0].solution ^ 1)] + reports[1:]
assert not protocol.owner_verify_execution(forged, params, plan)
print(_kernel.BACKEND)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"
