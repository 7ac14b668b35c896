"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace 0|1]
                               [--scale full|tiny] [--pins FILE] --tmp DIR
                               [--setup-only]

Prints one JSON object on its last line of standard output: set-up and wall
time, the time of a fixed reference task run twice after the timed calls,
the work done, peak RSS, the operations attempted and failed with the reason
for each failure and, with ``--trace 1``, the calls and self time of every
wrapped layer function.  ``--setup-only`` stops after the set-up and
prints only its time and one reference time.  Exits 3 if pwtraffic cannot be set up at all.
"""

from __future__ import annotations

import argparse
import functools
import gc
import inspect
import json
import os
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

# (metric prefix, module, attribute path); every public function whose
# calls and self time the traced run records.
LAYERS = [
    ("models.realized_profiles", "pwtraffic.models", "ProfiledEnsemble.realized_profiles"),
    ("models.EntryLaw.sample", "pwtraffic.models", "EntryLaw.sample"),
    ("models.pw_matrix", "pwtraffic.models", "pw_matrix"),
    ("models.equivalent_sum", "pwtraffic.models", "equivalent_sum"),
    ("models.equivalent_lin", "pwtraffic.models", "equivalent_lin"),
    ("models.per_matrix", "pwtraffic.models", "per_matrix"),
    ("models.decompose", "pwtraffic.models", "decompose"),
    ("models.z_lambda", "pwtraffic.models", "z_lambda"),
    ("traffic.sample_trace", "pwtraffic.traffic", "sample_trace"),
    ("traffic.combinatorial_trace", "pwtraffic.traffic", "combinatorial_trace"),
    ("limits.limit_pw", "pwtraffic.limits", "limit_pw"),
    ("limits.limit_B", "pwtraffic.limits", "limit_B"),
    ("limits.limit_lin", "pwtraffic.limits", "limit_lin"),
    ("limits.limit_per", "pwtraffic.limits", "limit_per"),
    ("limits.limit_equivalent_sum", "pwtraffic.limits", "limit_equivalent_sum"),
    ("limits.delta0_graphon", "pwtraffic.limits", "delta0_graphon"),
    ("graphs.quotient", "pwtraffic.graphs", "quotient"),
    ("graphs.classify", "pwtraffic.graphs", "classify"),
    ("limits.eta_support_scan", "pwtraffic.limits", "eta_support_scan"),
    ("graphs.split_partitions", "pwtraffic.graphs", "split_partitions"),
    ("graphs.has_centered_support", "pwtraffic.graphs", "has_centered_support"),
    ("graphs.edge_groups", "pwtraffic.graphs", "edge_groups"),
    ("graphs.eta", "pwtraffic.graphs", "eta"),
    ("partitions.SetPartition.from_blocks", "pwtraffic.partitions", "SetPartition.from_blocks"),
]

SETUP_FAILED = 3


class Stats:
    __slots__ = ("calls", "self_s", "yielded", "true", "generator")

    def __init__(self, generator: bool) -> None:
        self.generator = generator
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.true = 0


class Tracer:
    """Counts calls and self time of wrapped functions.

    Self time is a call's duration minus the time spent in wrapped functions
    it called.  A generator is timed across each ``next``, so the time its
    consumer spends between items is not charged to it.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stats] = {}
        self._stack: list[float] = []  # child time of each open call

    def _timed(self, stats: Stats, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stats.self_s += dt - stack.pop()
            if stack:
                stack[-1] += dt

    def wrap(self, name: str, fn):
        stats = self.stats[name] = Stats(inspect.isgeneratorfunction(fn))
        timed = self._timed

        if stats.generator:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats.calls += 1
                it = fn(*args, **kwargs)
                done = object()
                while True:
                    item = timed(stats, next, (it, done), {})
                    if item is done:
                        return
                    stats.yielded += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            out = timed(stats, fn, args, kwargs)
            if out is True:
                stats.true += 1
            return out

        return wrapper

    def install(self) -> None:
        """Replace each layer function everywhere pwtraffic refers to it."""
        for name, module_name, path in LAYERS:
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = owner.__dict__[attr]
            original = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(name, original)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            if parents:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pwtraffic":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_ms"] = s.self_s * 1e3
            if s.generator:
                out[f"{name}.yielded"] = s.yielded
            if name == "graphs.has_centered_support":
                out["graphs.support_ratio"] = s.true / s.calls if s.calls else 0.0
        return out


def reference_s() -> float:
    """Time of a fixed task doing the two kinds of work pwtraffic does.

    A pure-Python part (Fraction arithmetic and small-object allocation, with
    the cyclic GC off) like the exact layers, and a numpy part (a 200 x 200
    matmul, elementwise maths and normal draws) like the Monte Carlo layers.
    It calls nothing of pwtraffic, so what moves it is the machine, not the
    program (short of a program change to interpreter-wide state, such as a
    thread left running).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    b = rng.standard_normal((200, 200))
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 5000):
            acc += Fraction(1, i)
        groups: dict = {}
        for i in range(50000):
            item = (i, (i % 7, i % 11), {i % 5: [i]})  # dropped at once: no RSS growth
            groups[item[1]] = groups.get(item[1], 0) + item[0]
        for _ in range(16):
            c = np.tanh(a @ b) * a
            rng.standard_normal((200, 200)) * (c**3).sum(axis=0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--pins", default=None, help="pinned-values file (default: none, invariants only)")
    parser.add_argument("--tmp", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up only")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    pins = None
    if args.pins:
        with open(args.pins) as fh:
            table = json.load(fh)
        pins = table.get(args.scale, {}).get(args.workload, {}).get(workloads.pin_key(args.workload, args.seed))

    os.makedirs(args.tmp, exist_ok=True)
    try:
        inputs = wl.inputs(args.seed, args.scale)
        state = wl.prepare(inputs, args.tmp)
        t0 = time.perf_counter()
        try:
            state.update(wl.setup(state))
        except Exception:
            traceback.print_exc()
            print("error: pwtraffic could not be set up", file=sys.stderr)
            return SETUP_FAILED
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
            return 0

        tracer = None
        trial_ms: list[float] = []
        map_fn = None  # what `pwtraffic <command> --threads 1` passes
        if args.trace:
            tracer = Tracer()
            tracer.install()

            def map_fn(fn, items):
                out = []
                for item in items:
                    t = time.perf_counter()
                    out.append(fn(item))
                    trial_ms.append((time.perf_counter() - t) * 1e3)
                return out

        t0 = time.perf_counter()
        try:
            outputs = wl.run(state, map_fn, args.tmp)
        except Exception:
            outputs = None
            crash = traceback.format_exc()
        wall_s = time.perf_counter() - t0
        # read before the reference task, which must not raise the peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref_s = (reference_s() + reference_s()) / 2
        layers = tracer.snapshot() if tracer else {}

        if outputs is None:
            problems = [[crash]] * wl.n_operations(inputs)
            units = 0
        else:
            try:
                problems = wl.check(state, outputs, pins)
            except Exception:
                problems = [[traceback.format_exc()]] * wl.n_operations(inputs)
            units = wl.units(state, outputs)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "units": units,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": [p for p in problems if p],
        "pinned": pins is not None,
        "layers": layers,
        "trial_ms": trial_ms,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
