"""The three benchmark workloads: inputs made from a seed, one operation, output checks.

Every workload is a closed loop driven by one thread: the next operation
starts when the previous one returns, because ringveil's jobs (a simulator
run, a plan compile, a solve, an audit) are batch jobs that a caller waits
on, not requests arriving on their own.  The program is driven only through
its public library calls, and always through the module attribute
(``simnet.run``, ``crypto.puzzle_solve``), so the traced run can wrap them.
"""

import hashlib
import random
import time

import ringveil.cli  # noqa: F401  (set-up pays for the CLI's imports, scipy included)
from ringveil import adversary, crypto, protocol, schedule, simnet


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _rng(workload, seed, label):
    # random.Random hashes a str seed with SHA-512, so this is stable across
    # interpreters and independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}:{label}")


def _trace_digest(trace):
    return hashlib.sha256(simnet.trace_to_csv(trace).encode()).hexdigest()


class WideRing:
    """Padding-only ring: 3 physical devices stand in for 256 positions.

    Frames are 100,172 bytes at the 512-bit slot geometry, so each hop's cost
    is the token path (parse, re-build, AES-GCM over the frame); no puzzle is
    ever delivered, so the squaring kernel does nothing.
    """

    name = "wide_ring"
    rounds = 12  # 3,084 frame deliveries per operation
    nominal_op_s = 0.35

    def setup(self, seed):
        config = simnet.SimConfig(
            n_physical=3,
            n_virtual=256,
            modulus_bits=512,
            jitter=0,
            rounds=self.rounds,
            seed=_rng(self.name, seed, "config").getrandbits(32),
        )
        registry = simnet.registry_for(config)
        frame_size = simnet.layout_for(config).frame_size
        per_hop = config.hop_latency + simnet.transmit_time(config, frame_size)
        n = config.n_virtual
        return {
            "config": config,
            "registry": registry,
            "frame_size": frame_size,
            # Zero jitter: every round is the same n+1 links and n holds.
            "expected_latency_us": (n + 1) * per_hop + n * config.hold,
            "digest": None,
        }

    def run_op(self, state, index):
        start = time.perf_counter()
        trace, reports, stats = simnet.run(state["config"], registry=state["registry"])
        elapsed = time.perf_counter() - start
        hops = len(trace.records)
        return {
            "trace": trace,
            "reports": reports,
            "stats": stats,
            "hops": hops,
            "op_s": elapsed,
            "sim_hops_per_s": hops / elapsed,
        }

    def check(self, state, index, out):
        config = state["config"]
        _require(
            out["hops"] == config.rounds * (config.n_virtual + 1),
            f"{out['hops']} frame deliveries, expected {config.rounds * (config.n_virtual + 1)}",
        )
        _require(
            all(size == state["frame_size"] for _, _, _, size, _ in out["trace"].records),
            f"a frame differs from the layout's {state['frame_size']} bytes",
        )
        _require(
            out["stats"]["mean_latency_us"] == state["expected_latency_us"],
            f"mean round latency {out['stats']['mean_latency_us']} us, "
            f"expected {state['expected_latency_us']} us",
        )
        _require(not out["reports"], "a padding-only ring returned execution reports")
        digest = _trace_digest(out["trace"])
        if state["digest"] is None:
            state["digest"] = digest
        _require(digest == state["digest"], "trace differs between runs of one seed")

    def finish(self, state):
        pass


def _placements(n):
    """Every way to lay an ascending 3-chain and 2-chain on ids 1..n-1, a free id apart.

    Ascending pairs keep the ring order (the smallest linear extension) the
    identity, so two such schedules put the same devices on the same links.
    Id n stays unconstrained, so it is always the latest free device.
    """
    return [
        ((a, a + 1, a + 2), (b, b + 1))
        for a in range(1, n - 2)
        for b in range(1, n - 1)
        if b + 1 <= a - 2 or b >= a + 4
    ]


def _pairs(placement):
    return [(a, b) for chain in placement for a, b in zip(chain, chain[1:])]


def _schedule_text(devices, pairs, reads):
    lines = [f"device {d}" for d in devices]
    lines += [f"pair {a} {b}" for a, b in pairs]
    lines += [f"read {d}" for d in reads]
    return "\n".join(lines) + "\n"


class ScheduledRing:
    """The paper's full pipeline at the default 512-bit modulus.

    16 physical devices (n_virtual = n_physical, so every hop carries a fresh
    token and every device attempts the X25519 unwrap), 6,814-byte frames, and
    a compiled plan scheduling all 16 devices with order pairs and reads.
    Operations alternate between two plans that differ only in their order
    pairs; the wiretap must not tell them apart.
    """

    name = "scheduled_ring"
    # Every upload is recovered by round 4.  The ring keeps circulating
    # padding tokens after that, as it does between schedules, so 200 rounds
    # weigh the per-hop unwrap attempts about as much as the squaring.
    rounds = 200
    nominal_op_s = 0.6

    def setup(self, seed):
        rng = _rng(self.name, seed, "inputs")
        config = simnet.SimConfig(
            n_physical=16,
            modulus_bits=512,
            # An execution report at 512 bits is 88 bytes plus a 2-byte
            # prefix; the default 64-byte sub-field carries only 62.
            data_per_device=96,
            rounds=self.rounds,
            seed=rng.getrandbits(32),
        )
        devices = list(range(1, config.n_physical + 1))
        reads = sorted(rng.sample(devices, 4))
        registry = simnet.registry_for(config)
        params = crypto.gen_params(config.modulus_bits, rng_seed=config.modulus_bits)
        forward = simnet.predicted_forward_times(config)
        # A chain's t_hat values do not depend on where it sits, and a free
        # device's grow with its distance to the last free one; so placements
        # whose chained ids share one sum give both schedules and every seed
        # the same squaring work, and the seeds' spread measures the host.
        placements = [p for p in _placements(len(devices)) if sum(map(sum, p)) == 39]
        plans = []
        for placement in rng.sample(placements, 2):
            pairs = _pairs(placement)
            order = schedule.parse_schedule_text(_schedule_text(devices, pairs, reads))
            plan = schedule.compile(
                order, registry, params, forward, rng_seed=config.seed
            )
            plans.append((plan, order.script))
        return {
            "config": config,
            "registry": registry,
            "params": params,
            "plans": plans,
            "reads": reads,
            "digest": None,
            "views": [None, None],
        }

    def run_op(self, state, index):
        plan, script = state["plans"][index % 2]
        start = time.perf_counter()
        trace, reports, stats = simnet.run(
            state["config"], plan, script=script, registry=state["registry"]
        )
        elapsed = time.perf_counter() - start
        hops = len(trace.records)
        return {
            "plan": plan,
            "trace": trace,
            "reports": reports,
            "stats": stats,
            "hops": hops,
            "op_s": elapsed,
            "sim_hops_per_s": hops / elapsed,
        }

    def check(self, state, index, out):
        plan, reports = out["plan"], out["reports"]
        scheduled = sorted(e.device_id for e in plan.entries)
        _require(
            sorted(r.device_id for r in reports) == scheduled,
            f"reports from {sorted(r.device_id for r in reports)}, scheduled {scheduled}",
        )
        _require(
            out["stats"]["uploads_recovered"] == len(scheduled) + len(state["reads"]),
            f"{out['stats']['uploads_recovered']} uploads recovered, expected "
            f"{len(scheduled) + len(state['reads'])} (reports and sensor reads)",
        )
        _require(
            protocol.owner_verify_execution(reports, state["params"], plan),
            "owner audit rejected the execution reports",
        )
        t_com = {r.device_id: r.t_com for r in reports}
        for earlier, later in plan.pairs:
            _require(
                t_com[earlier] <= t_com[later],
                f"device {earlier} actuated after {later}",
            )
        # Same config and seed, different schedule: the wiretap metadata
        # (time, endpoints, size of every frame) must be byte-identical.
        digest = _trace_digest(out["trace"])
        if state["digest"] is None:
            state["digest"] = digest
        _require(digest == state["digest"], "wiretap metadata differs between schedules")
        if state["views"][index % 2] is None:
            state["views"][index % 2] = adversary.build_view(out["trace"])

    def finish(self, state):
        view_a, view_b = state["views"]
        _require(view_b is not None, "only one of the two schedules was run")
        verdict = adversary.distinguish_schedules(view_a, view_b, adversary.AdversaryConfig())
        _require(
            verdict["verdict"] == "indistinguishable",
            f"wiretap distinguishes the two schedules: {verdict}",
        )


class Timelock2048:
    """Owner and device puzzle lifecycle at a 2048-bit modulus, no network.

    Each operation compiles an 8-device plan with chained pairs, lets every
    device unwrap its slot and solve its puzzle by sequential squaring, and
    audits the reports through the phi(n) trapdoor.
    """

    name = "timelock_2048"
    bits = 2048
    base_t_hat = 4000
    # One plan shape for every seed, which draws the keys and puzzles, so
    # every seed does the same squaring work.
    pairs = ((1, 2), (2, 3), (6, 5))
    nominal_op_s = 1.4

    def setup(self, seed):
        rng = _rng(self.name, seed, "inputs")
        devices = list(range(1, 9))
        order = schedule.parse_schedule_text(_schedule_text(devices, self.pairs, ()))
        registry = crypto.KeyRegistry.provision(devices, seed=rng.getrandbits(64))
        # The modulus is fixed per width: the prime search's luck would
        # otherwise swing set-up time 4x between seeds.
        params = crypto.gen_params(self.bits, rng_seed=self.bits)
        forward = simnet.predicted_forward_times(
            simnet.SimConfig(n_physical=len(devices), modulus_bits=self.bits)
        )
        return {
            "order": order,
            "registry": registry,
            "params": params,
            "forward": forward,
            "plan_seed": rng.getrandbits(64),
        }

    def _compile(self, state, index):
        return schedule.compile(
            state["order"],
            state["registry"],
            state["params"],
            state["forward"],
            rng_seed=f"{state['plan_seed']}:{index}",
            base_t_hat=self.base_t_hat,
            squarings_per_unit=1,
        )

    def run_op(self, state, index):
        start = time.perf_counter()
        plan = self._compile(state, index)
        compiled = time.perf_counter()
        solutions = []
        for entry in plan.entries:
            blob = crypto.unwrap_for_device(
                entry.wrapped, state["registry"].device_secret(entry.device_id)
            )
            solutions.append(crypto.puzzle_solve(crypto.puzzle_from_bytes(blob)))
        solved = time.perf_counter()
        # At S = 1 squaring per time unit, a device actuates at t_com = t_hat.
        reports = [
            protocol.ExecutionReport(
                device_id=entry.device_id,
                t_com=entry.t_hat,
                t_hat=entry.t_hat,
                solution=(entry.puzzle.e_k - solution.key) % entry.puzzle.n,
            )
            for entry, solution in zip(plan.entries, solutions)
        ]
        audit_start = time.perf_counter()
        audit_ok = protocol.owner_verify_execution(reports, state["params"], plan)
        audited = time.perf_counter()
        squarings = sum(s.squarings_performed for s in solutions)
        return {
            "plan": plan,
            "solutions": solutions,
            "reports": reports,
            "audit_ok": audit_ok,
            # building the reports in between is benchmark work, not timed
            "op_s": (solved - start) + (audited - audit_start),
            "solve_sq_per_s": squarings / (solved - compiled),
            "compile_puzzles_per_s": len(plan.entries) / (compiled - start),
            "audit_reports_per_s": len(reports) / (audited - audit_start),
        }

    def check(self, state, index, out):
        plan = out["plan"]
        _require(len(plan.entries) == len(state["order"].devices), "plan lost a device")
        for entry, solution in zip(plan.entries, out["solutions"]):
            _require(
                solution.command == entry.command,
                f"device {entry.device_id} decoded another command than the plan encoded",
            )
            _require(
                solution.squarings_performed == entry.t_hat,
                f"device {entry.device_id} did {solution.squarings_performed} squarings, "
                f"t_hat is {entry.t_hat}",
            )
        _require(out["audit_ok"], "owner audit rejected correct execution reports")
        state["last"] = out

    def finish(self, state):
        # Negative control, untimed: a residue off by one must fail the audit.
        out = state["last"]
        forged = list(out["reports"])
        forged[0] = protocol.ExecutionReport(
            device_id=forged[0].device_id,
            t_com=forged[0].t_com,
            t_hat=forged[0].t_hat,
            solution=(forged[0].solution + 1) % state["params"].n,
        )
        _require(
            not protocol.owner_verify_execution(forged, state["params"], out["plan"]),
            "owner audit accepted a report whose residue was changed by 1",
        )


WORKLOADS = {w.name: w for w in (WideRing(), ScheduledRing(), Timelock2048())}
