"""Passive-observer analyses: what a wiretap on the home network learns.

The observer sees frame metadata only (time, endpoints, size) and never any
plaintext or key.  AdversarialView is a pure projection of a TraceLog;
distinguish_schedules runs two-sample tests over a pair of views and reports
p-values, standing in for the negligible-advantage statements with a concrete
significance threshold.  record_attack and clone_attack reproduce the
guess-the-slot and race-the-device experiments.
"""

import random
from collections import Counter
from dataclasses import dataclass

from ringveil import crypto, token
from ringveil.protocol import HUB_ID
from ringveil.simnet import TraceLog

DEFAULT_SIGNIFICANCE = 0.01
REJECT = "reject"
FAIL_TO_REJECT = "fail-to-reject"


@dataclass(frozen=True)
class AdversaryConfig:
    significance: float = DEFAULT_SIGNIFICANCE

    def __post_init__(self):
        if not 0 < self.significance <= 0.1:
            raise ValueError("significance must lie in (0, 0.1]")


@dataclass(frozen=True)
class AdversarialView:
    """Everything a passive wiretap retains: command-like arrivals at devices
    and data-like departures from devices.  A device-to-device hop is both.
    links keeps who sent each frame to whom."""

    command_obs: tuple  # (time_us, dst device, size)
    data_obs: tuple  # (time_us, src device, size)
    links: tuple  # (src, dst) of every frame
    config_fingerprint: str = ""


def build_view(trace: TraceLog) -> AdversarialView:
    commands = []
    data = []
    links = []
    for time_us, src, dst, size, _round in trace.records:
        if dst != HUB_ID:
            commands.append((time_us, dst, size))
        if src != HUB_ID:
            data.append((time_us, src, size))
        links.append((src, dst))
    return AdversarialView(
        tuple(commands), tuple(data), tuple(links), trace.config_fingerprint
    )


def _observation_sizes(view: AdversarialView):
    return [size for _, _, size in view.command_obs] + [
        size for _, _, size in view.data_obs
    ]


def _inter_arrivals(view: AdversarialView):
    times = sorted(
        [t for t, _, _ in view.command_obs] + [t for t, _, _ in view.data_obs]
    )
    return [b - a for a, b in zip(times, times[1:])]


def _endpoint_counts(view: AdversarialView):
    return Counter(device for _, device, _ in view.command_obs + view.data_obs)


def _ks_test(a, b):
    if not a and not b:
        return 0.0, 1.0
    if not a or not b:
        return 1.0, 0.0
    from scipy import stats  # deferred: it dominates CLI start-up, and only these tests use it

    result = stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)


def _count_test(a, b):
    ids = sorted(set(a) | set(b))
    if not ids:
        return 0.0, 1.0
    if sum(a.values()) == 0 or sum(b.values()) == 0:
        return 1.0, 0.0
    if len(ids) < 2:
        return 0.0, 1.0  # single endpoint: no contingency to test
    table = [
        [a.get(i, 0) for i in ids],
        [b.get(i, 0) for i in ids],
    ]
    from scipy import stats

    result = stats.chi2_contingency(table)
    return float(result.statistic), float(result.pvalue)


def distinguish_schedules(
    view_a: AdversarialView, view_b: AdversarialView, cfg: AdversaryConfig
):
    """Two-sample tests over a pair of wiretap views.

    Returns a report dict with one entry per test (statistic, p-value,
    verdict at cfg.significance) plus the overall verdict: distinguishable
    when any test rejects.
    """
    fp_a, fp_b = view_a.config_fingerprint, view_b.config_fingerprint
    if fp_a and fp_b and fp_a != fp_b:
        raise ValueError("views were captured on different network geometries")

    outcomes = [
        ("frame-sizes-ks", *_ks_test(_observation_sizes(view_a), _observation_sizes(view_b))),
        ("inter-arrival-ks", *_ks_test(_inter_arrivals(view_a), _inter_arrivals(view_b))),
        ("endpoint-counts-chi2", *_count_test(_endpoint_counts(view_a), _endpoint_counts(view_b))),
        ("link-counts-chi2", *_count_test(Counter(view_a.links), Counter(view_b.links))),
    ]
    tests = [
        {
            "test": name,
            "statistic": statistic,
            "p_value": p_value,
            "verdict": REJECT if p_value < cfg.significance else FAIL_TO_REJECT,
        }
        for name, statistic, p_value in outcomes
    ]
    rejected = any(t["verdict"] == REJECT for t in tests)
    return {
        "significance": cfg.significance,
        "tests": tests,
        "verdict": "distinguishable" if rejected else "indistinguishable",
    }


def record_attack(puzzles, target, *, trials=1000, rng_seed=0) -> float:
    """Guess which sealed command slot carries the puzzle with the announced
    delay, from ciphertext bytes alone; returns the success rate.

    Each trial wraps every puzzle under a fresh random key, pads the blobs
    to a common slot length, and shuffles the slot order.  The guess is an
    arbitrary deterministic function of all observed bytes, which is the best
    available strategy when the ciphertexts carry no usable signal.
    """
    if not puzzles:
        raise ValueError("need at least one puzzle")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(crypto.derive_seed(rng_seed, "record-attack"))
    slot_size = token.max_wrapped_slot_size(
        max(p.n.bit_length() for p in puzzles)
    )
    hits = 0
    l = len(puzzles)
    for _ in range(trials):
        placement = rng.sample(range(l), l)
        slots = []
        for idx in placement:
            blob = crypto.puzzle_to_bytes(puzzles[idx])
            wrapped = crypto.wrap_for_device(blob, rng.randbytes(32), rng)
            slots.append(wrapped + rng.randbytes(slot_size - len(wrapped)))
        guess = int.from_bytes(crypto.hash_digest(b"".join(slots)), "big") % l
        if puzzles[placement[guess]].t_hat == target:
            hits += 1
    return hits / trials


def clone_attack(puzzle, *, phi=None):
    """Race an eavesdropper who copied the puzzle against the real device.

    Both parties solve; the result is the squaring count each solve reports,
    which a faster machine shortens in wall time but never lowers.  Passing
    phi hands the observer the trapdoor (control condition): the chain is
    bypassed entirely.
    """
    if phi is None:
        adv = crypto.puzzle_solve(puzzle)
    else:
        residue = crypto.puzzle_fast_eval(puzzle, phi)
        adv = crypto.recover_solution(puzzle, residue, 0)
    dev = crypto.puzzle_solve(puzzle)
    return adv.squarings_performed, dev.squarings_performed
