"""Spans around the calls into each ringveil layer, recorded from the benchmark side.

The tracer replaces a module attribute (``crypto.sym_seal``) with a wrapper
that records one span per call: name, start, end, parent span and operation
id.  Callers inside ringveil look these attributes up at call time, so the
wrapper sees calls between layers as well as the benchmark's own.  Spans stay
in memory in flat arrays and are written out once, after the run.

A layer's self time is its spans' duration minus the part covered by child
spans; the run is single-threaded, so children never overlap.
"""

import csv
import functools
import gzip
import importlib
import time
from array import array


class TraceGuardError(RuntimeError):
    """The traced run no longer measures what its metrics claim to measure."""


def _count_squarings(extra, args, result):
    extra["squarings"] += args[2]  # (value, modulus, steps)


def _count_bytes(extra, args, result):
    extra["bytes"] += len(args[0])  # plaintext for seal, frame for open


def _count_ok(extra, args, result):
    extra["ok"] += 1  # reached only when the call returned


def _count_run(extra, args, result):
    trace, _reports, stats = result
    extra["hops"] += len(trace.records)
    extra["recovered"] += stats["uploads_recovered"]


# (module, attribute, span name, hook run on each successful return); modules
# are resolved at install time, so importing this file does not import ringveil.
TARGETS = (
    ("ringveil.crypto", "_square_chain", "kernel.square_chain", _count_squarings),
    ("ringveil.crypto", "gen_params", "crypto.gen_params", None),
    ("ringveil.crypto", "sym_seal", "crypto.sym_seal", _count_bytes),
    ("ringveil.crypto", "sym_open", "crypto.sym_open", _count_bytes),
    ("ringveil.crypto", "unwrap_for_device", "crypto.unwrap_for_device", _count_ok),
    ("ringveil.crypto", "wrap_for_device", "crypto.wrap_for_device", None),
    ("ringveil.crypto", "puzzle_create", "crypto.puzzle_create", None),
    ("ringveil.crypto", "puzzle_fast_eval", "crypto.puzzle_fast_eval", None),
    ("ringveil.crypto", "puzzle_solve", "crypto.puzzle_solve", None),
    ("ringveil.token", "token_build", "token.token_build", None),
    ("ringveil.token", "token_parse", "token.token_parse", None),
    ("ringveil.protocol", "device_on_token", "protocol.device_on_token", None),
    ("ringveil.protocol", "hub_emit_token", "protocol.hub_emit_token", None),
    ("ringveil.protocol", "hub_on_token", "protocol.hub_on_token", None),
    ("ringveil.protocol", "device_tick", "protocol.device_tick", None),
    ("ringveil.protocol", "enqueue_upload", "protocol.enqueue_upload", None),
    ("ringveil.protocol", "owner_verify_execution", "protocol.owner_verify_execution", None),
    ("ringveil.schedule", "compile", "schedule.compile", None),
    ("ringveil.simnet", "run", "simnet.run", _count_run),
    ("ringveil.adversary", "distinguish_schedules", "adversary.distinguish_schedules", None),
)

# Functions each workload must reach; zero calls means the workload no longer
# exercises the layer its metrics describe.
REQUIRED = {
    "wide_ring": ("simnet.run", "token.token_parse", "crypto.sym_open", "crypto.unwrap_for_device"),
    "scheduled_ring": (
        "simnet.run",
        "kernel.square_chain",
        "protocol.device_tick",
        "protocol.enqueue_upload",
        "crypto.unwrap_for_device",
        "protocol.owner_verify_execution",
        "adversary.distinguish_schedules",
    ),
    "timelock_2048": (
        "schedule.compile",
        "crypto.puzzle_create",
        "crypto.puzzle_solve",
        "kernel.square_chain",
        "crypto.puzzle_fast_eval",
        "crypto.gen_params",
    ),
}


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in TARGETS]
        self.extra = {name: {"squarings": 0, "bytes": 0, "ok": 0, "hops": 0, "recovered": 0}
                      for name in self.names}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1  # -1 while setting up
        self._stack = []
        self._originals = []
        self.origin = time.perf_counter()

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TraceGuardError(
                    f"{module_name}.{attr} no longer exists; the span {name!r} "
                    "and its metrics must be moved to where the work now happens"
                )
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(self.names.index(name), original, hook))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name_id, fn, hook):
        extra = self.extra[self.names[name_id]]
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end
            if hook is not None:
                hook(extra, args, result)
            return result

        return traced

    def summary(self):
        """Per span name: calls, busy (summed duration) and self time."""
        child = [0.0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, **self.extra[name]}
               for name in self.names}
        for i, name_id in enumerate(self.span_name):
            row = out[self.names[name_id]]
            duration = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def write(self, path):
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "op", "parent", "start_s", "end_s"))
            for i, name_id in enumerate(self.span_name):
                writer.writerow((
                    i,
                    self.names[name_id],
                    self.span_op[i],
                    self.span_parent[i],
                    f"{self.span_start[i] - self.origin:.9f}",
                    f"{self.span_end[i] - self.origin:.9f}",
                ))
