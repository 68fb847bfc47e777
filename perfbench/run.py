"""ringveil benchmark: three closed-loop workloads, end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide_ring --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:
the median time of one operation, set-up time from fresh interpreters, and
peak memory; the workload's own throughputs go to the detail line printed
before the result.  With ``--trace 1`` it
runs a fixed number of operations untraced and then traced, and reports the
per-layer metrics from the spans, the tracing overhead, and the squaring
kernel's rates for each backend.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is built from source once per checkout (``setup.py build_ext
--inplace``; the compiled kernel is optional and its absence falls back to
the pure one).  Outputs go to ``.perfbench-out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

# Each workload's own throughputs, reported beside op_s in the detail line;
# the first is the one trace.overhead_ratio compares.
RATES = {
    "wide_ring": ("sim_hops_per_s",),
    "scheduled_ring": ("sim_hops_per_s",),
    "timelock_2048": ("solve_sq_per_s", "compile_puzzles_per_s", "audit_reports_per_s"),
}
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
# Host speed swings by up to 2x within a minute on a shared host, while an
# operation's time relative to a fixed probe run just before it holds within a
# few percent, so each operation's time is scaled by REFERENCE_PROBE_S over
# its probe's time.  The probe is benchmark code, runs outside the timed
# regions, and never calls ringveil.
REFERENCE_PROBE_S = 0.035
_PROBE_M61 = (1 << 61) - 1
_PROBE_M2048 = (1 << 2048) - 159
_PROBE_BUFFER = bytes(range(256)) * 1024
MAX_FAILURES = 10  # stop a run that fails every operation instead of spinning
KERNEL_STEPS = {64: 200_000, 512: 40_000, 1024: 15_000, 2048: 5_000}


def _fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _build():
    """Build the optional compiled kernel once per checkout."""
    stamp = OUT / "build.stamp"
    if stamp.exists() or not (ROOT / "setup.py").exists():
        return
    with open(OUT / "build.log", "w") as log:
        done = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=600,
        )
    stamp.write_text(f"build_ext exit {done.returncode}\n")


def host_probe():
    """Seconds for a fixed mix of interpreter, big-integer and memory work."""
    start = time.perf_counter()
    small = big = 3
    for _ in range(50_000):
        small = small * small % _PROBE_M61
    for _ in range(1_200):
        big = big * big % _PROBE_M2048
    for _ in range(32):
        hashlib.sha256(_PROBE_BUFFER[1:]).digest()
    return time.perf_counter() - start


def _quartiles(values):
    """Sample count, quartiles, and the highest value with ten samples above it."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "median": q2, "q1": q1, "q3": q3,
           "min": min(values), "max": max(values)}
    if len(values) > 10:
        out["tail"] = {"percentile": 100 * (len(values) - 10) / len(values),
                       "value": sorted(values)[-11]}
    return out


def _setup_probe_seconds(args):
    """Wall time from spawning a fresh interpreter to its set-up being done."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


class Runner:
    """Runs a workload's operations and counts every attempt and failure."""

    def __init__(self, workload, state, probe=False):
        self.workload = workload
        self.state = state
        self.probe = probe  # run host_probe() before each operation of a loop
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, index):
        """One operation and its output checks; returns its output, or None."""
        self.attempted += 1
        try:
            out = self.workload.run_op(self.state, index)
            self.workload.check(self.state, index, out)
            return out
        except Exception:
            self.failed += 1
            self.correct = False
            traceback.print_exc(file=sys.stderr)
            return None

    def loop(self, count=None, seconds=None):
        """Closed loop, for a fixed count or until the time is up; returns timings."""
        outputs = []
        deadline = time.perf_counter() + (seconds or 0)
        index = 0
        while (index < count) if count is not None else (time.perf_counter() < deadline):
            probe_s = host_probe() if self.probe else None
            out = self.op(index)
            if out is not None:
                # Keep the timings only, so the benchmark's own memory does
                # not grow with the number of operations a run fits in.
                timings = {k: v for k, v in out.items() if isinstance(v, float)}
                outputs.append({**timings, "probe_s": probe_s})
            elif self.failed >= MAX_FAILURES:
                break
            index += 1
        return outputs

    def finish(self):
        try:
            self.workload.finish(self.state)
        except Exception:
            self.correct = False
            traceback.print_exc(file=sys.stderr)


def _kernel_rows(seed):
    """square_chain rates per backend and modulus width; residues must agree."""
    from ringveil import _kernel
    from ringveil._kernel import pure

    backends = {"pure": pure.square_chain, "active": _kernel.square_chain}
    try:
        from ringveil._kernel import _seqsquare
    except ImportError:
        pass
    else:
        backends[_seqsquare.BACKEND] = _seqsquare.square_chain
    rng = random.Random(f"perfbench:kernel:{seed}")
    rates, mismatches = {}, []
    for bits, steps in KERNEL_STEPS.items():
        modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        value = rng.randrange(2, modulus)
        expected = None
        for backend, chain in backends.items():
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                residue = chain(value, modulus, steps)
                best = min(best, time.perf_counter() - start)
            if expected is None:
                expected = residue
            elif residue != expected:
                mismatches.append(f"{backend} at {bits} bits")
            rates[f"kernel.{backend}.sq_per_s.{bits}"] = steps / best
    return rates, mismatches


def _provenance():
    import cryptography
    from ringveil import _kernel

    stamp = OUT / "build.stamp"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "kernel_backend": _kernel.BACKEND,
        "build": stamp.read_text().strip() if stamp.exists() else "no setup.py",
    }


def _emit(detail, runner, metrics):
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


def run_untraced(args):
    # Not scaled: import time does not follow the probe's speed.
    setup_samples = [_setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, workload.setup(args.seed), probe=True)
    runner.op(-1)  # warm-up, untimed: caches and lazy set-up settle first
    outputs = runner.loop(seconds=args.seconds)
    runner.finish()

    # > 1 while the host ran faster than the reference, < 1 while slower.
    speeds = [REFERENCE_PROBE_S / o["probe_s"] for o in outputs]
    op_s = [o["op_s"] * speed for o, speed in zip(outputs, speeds)]
    metrics = {
        "op_s": {"value": statistics.median(op_s) if op_s else 0.0, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "provenance": _provenance(),
        "setup_s_samples": setup_samples,
        "host_speed": _quartiles(speeds),
        "op_s": _quartiles(op_s),
        "raw_op_s": _quartiles([o["op_s"] for o in outputs]),
        "rates": {
            name: _quartiles([o[name] / speed for o, speed in zip(outputs, speeds)])
            for name in RATES[args.workload]
        },
    }
    _emit(detail, runner, metrics)


def _layer_metrics(summary):
    """Per-layer metrics from the span summary, named as in BENCHMARK.json."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    square = summary["kernel.square_chain"]
    put("kernel.square_chain.calls", square["calls"], "count")
    put("kernel.square_chain.squarings", square["squarings"], "count")
    put("kernel.square_chain.busy_s", square["busy_s"], "s")
    put("kernel.square_chain.sq_per_s", rate(square["squarings"], square["busy_s"]), "squarings/s")
    for name in ("crypto.sym_seal", "crypto.sym_open"):
        put(f"{name}.calls", summary[name]["calls"], "count")
        put(f"{name}.bytes", summary[name]["bytes"], "B")
        put(f"{name}.busy_s", summary[name]["busy_s"], "s")
    unwrap = summary["crypto.unwrap_for_device"]
    put("crypto.unwrap_for_device.attempts", unwrap["calls"], "count")
    put("crypto.unwrap_for_device.ok", unwrap["ok"], "count")
    put("crypto.unwrap_for_device.busy_s", unwrap["busy_s"], "s")
    put("crypto.unwrap_for_device.ok_ratio", rate(unwrap["ok"], unwrap["calls"]), "ratio")
    for name in ("crypto.puzzle_create", "crypto.wrap_for_device", "crypto.puzzle_fast_eval"):
        put(f"{name}.calls", summary[name]["calls"], "count")
        put(f"{name}.busy_s", summary[name]["busy_s"], "s")
    put("crypto.gen_params.busy_s", summary["crypto.gen_params"]["busy_s"], "s")
    for name in (
        "crypto.puzzle_solve",
        "token.token_build",
        "token.token_parse",
        "protocol.device_on_token",
        "protocol.hub_emit_token",
        "protocol.hub_on_token",
        "protocol.device_tick",
        "protocol.owner_verify_execution",
        "schedule.compile",
        "simnet.run",
    ):
        put(f"{name}.calls", summary[name]["calls"], "count")
        put(f"{name}.self_s", summary[name]["self_s"], "s")
    put("protocol.uploads.requested", summary["protocol.enqueue_upload"]["calls"], "count")
    put("protocol.uploads.recovered", summary["simnet.run"]["recovered"], "count")
    put("simnet.run.hops", summary["simnet.run"]["hops"], "count")
    distinguish = summary["adversary.distinguish_schedules"]
    put("adversary.distinguish_schedules.calls", distinguish["calls"], "count")
    put("adversary.distinguish_schedules.busy_s", distinguish["busy_s"], "s")
    return metrics


def _check_counts(args, counts):
    """Counts of one seed and operation count must repeat exactly across runs."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}-s{args.seconds:g}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        changed = sorted(k for k in counts if previous.get(k) != counts[k])
        if changed:
            raise tracing.TraceGuardError(
                f"counts differ from an earlier run of this seed: {', '.join(changed)}"
            )
    else:
        path.write_text(json.dumps(counts, sort_keys=True))


def run_traced(args):
    start = time.perf_counter()
    import ringveil.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    primary = RATES[args.workload][0]
    # A fixed operation count, so every count repeats between runs of a seed.
    count = max(2, int(args.seconds / (2.5 * workload.nominal_op_s)))

    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        state = workload.setup(args.seed)
    finally:
        tracer.uninstall()
    prepare_s = time.perf_counter() - start

    runner = Runner(workload, state)
    runner.op(-1)
    untraced = [o[primary] for o in runner.loop(count=count)]
    tracer.install()
    try:
        traced = []
        for index in range(count):
            tracer.op = index
            out = runner.op(index)
            if out is not None:
                traced.append(out[primary])
        tracer.op = count
        runner.finish()
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    alloc_peak = 0
    if summary["simnet.run"]["calls"]:
        tracemalloc.start()
        try:
            runner.op(count)
            alloc_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    kernel_rates, mismatches = _kernel_rows(args.seed)
    if mismatches:
        runner.correct = False
        print(f"perfbench: kernel residues differ from pure: {mismatches}", file=sys.stderr)

    missing = [n for n in tracing.REQUIRED[args.workload] if summary[n]["calls"] == 0]
    if missing:
        raise tracing.TraceGuardError(f"{args.workload} never called {', '.join(missing)}")
    metrics = _layer_metrics(summary)
    _check_counts(args, {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "B")})
    metrics["simnet.run.alloc_peak_mb"] = {
        "value": alloc_peak / 2**20,
        "unit": "MiB",
    }
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    metrics["setup.prepare_s"] = {"value": prepare_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(untraced)
        if traced and untraced else 0.0,
        "unit": "ratio",
    }
    for name in ("pure", "active"):
        for bits in KERNEL_STEPS:
            key = f"kernel.{name}.sq_per_s.{bits}"
            metrics[key] = {"value": kernel_rates[key], "unit": "squarings/s"}

    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "provenance": _provenance(),
        "operations_per_phase": count,
        "spans": len(tracer.span_name),
        "spans_file": str(spans.relative_to(ROOT)),
        "kernel_rows": kernel_rates,
        f"untraced_{primary}": _quartiles(untraced),
        f"traced_{primary}": _quartiles(traced),
    }
    _emit(detail, runner, metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "ringveil" / "__init__.py").is_file():
        _fail(f"no ringveil source under {ROOT / 'src'}; run from a source checkout", 2)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return

    OUT.mkdir(exist_ok=True)
    _build()
    if args.trace:
        try:
            run_traced(args)
        except tracing.TraceGuardError as exc:
            _fail(f"traced run invalid: {exc}", 3)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
