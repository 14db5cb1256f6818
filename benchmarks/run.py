"""Benchmark harness for dismantle: one workload per process, closed loop.

    python3 benchmarks/run.py --workload core-search --seed 1 --seconds 20 \
        --trace 0 [--record out/core-search-1.json] [--ops N]

One caller in one thread runs the workload's ops back to back; the next op
starts only when the previous one returns. Each pass runs every unit of the
pool once, in an order shuffled from the seed, and the run stops at the
pass boundary nearest to ``--seconds`` of timed op time, so every run
measures the same mix of ops. Each op is checked outside its timed region.

An op's time is the CPU time of the process over the call
(``time.process_time``): the ops run in one thread and do no I/O beyond
reading small input files that set-up wrote, and on a shared virtual
machine wall time also counts the time the host lends the CPU to other
guests. Before each op, untimed, a fixed reference task gauges the speed
of the machine at that moment (speed.py). The printed times are scaled to
a nominal machine speed by the run's median reference time, so the drift
of a shared host's speed between runs largely cancels; the record keeps
the unscaled figures as well.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass
untraced and the same pass again with the per-layer tracer installed, and
prints the per-layer metrics; its work is fixed, so counts repeat exactly.
It times ops with ``time.perf_counter``, the clock of its spans.
``--ops N`` stops after N ops (for the self-check). The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
WORKLOADS = ("core-search", "hom-cells", "transport-verify")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="write the full record (per-op times, properties, "
                         "fingerprint; spans when traced) as JSON")
    ap.add_argument("--ops", type=int, default=0,
                    help="stop after this many ops (0: no limit)")
    return ap.parse_args(argv)


class Runner:
    """Runs ops, checks them, and keeps per-op times and output hashes."""

    def __init__(self, workloads, tracer=None, clock=time.process_time,
                 probe=False):
        self.w = workloads
        self.tracer = tracer
        self.clock = clock
        self.probes = [] if probe else None  # speed probe before each op
        self.verified = {}  # op key -> sha256 of its verified output text
        self.times = {}  # op key -> [seconds]
        self.failures = []
        self.ops_run = 0
        self.cert_steps = 0
        self.stdout_bytes = 0

    def run(self, op) -> tuple[float, bool]:
        """Build the inputs, time the call, check the result."""
        self.ops_run += 1
        try:
            inputs = op.make()
        except Exception as exc:  # inputs the library refuses: a failed op
            return 0.0, self._fail(op, f"make: {type(exc).__name__}: {exc}")
        gc.collect()
        if self.probes is not None:
            self.probes.append(speed.probe())
        tr = self.tracer
        try:
            if tr is not None:
                tr.op, tr.on = self.ops_run, True
            t0 = self.clock()
            try:
                result = op.call(*inputs)
            finally:
                dt = self.clock() - t0
                if tr is not None:
                    tr.on = False
        except Exception as exc:  # an op that raises is a failed op
            return dt, self._fail(op, f"raised {type(exc).__name__}: {exc}")
        self.times.setdefault(op.key, []).append(dt)
        full = op.key not in self.verified
        try:
            digest = hashlib.sha256(
                op.check(inputs, result, full).encode()).hexdigest()
        except Exception as exc:  # a check that raises fails the op
            return dt, self._fail(op, f"check: {type(exc).__name__}: {exc}")
        if full:
            self.verified[op.key] = digest
        elif digest != self.verified[op.key]:
            return dt, self._fail(op, "output differs from its verified run")
        if tr is not None:
            if op.det:
                self.cert_steps += _cert_steps(
                    result, self.w.C.DismantlingCertificate)
            if op.kind.startswith("cli."):
                self.stdout_bytes += len(result[1].encode("utf-8"))
        return dt, True

    def _fail(self, op, message) -> bool:
        self.failures.append(f"{op.key}: {message}")
        if len(self.failures) <= 5:
            print(f"FAILED {op.key}: {message}", file=sys.stderr)
        return False

    def run_unit(self, unit, budget):
        """Run a unit's first `budget` ops in order; returns the op times
        and the number that failed."""
        times, bad = [], 0
        for op in unit[:budget]:
            dt, ok = self.run(op)
            times.append(dt)
            bad += not ok
        return times, bad

    def fingerprint(self, units) -> str:
        """sha256 over the verified outputs of deterministic ops, in pool
        order; rng ops are checked but left out."""
        h = hashlib.sha256()
        for unit in units:
            for op in unit:
                if op.det and op.key in self.verified:
                    h.update(f"{op.key}\t{self.verified[op.key]}\n".encode())
        return h.hexdigest()


def _cert_steps(result, cert_type) -> int:
    """Steps of every certificate an op returned, CLI reports included."""
    if isinstance(result, cert_type):
        return len(result)
    if isinstance(result, tuple):
        return sum(_cert_steps(r, cert_type) for r in result)
    if isinstance(result, str) and result.startswith("{"):
        cert = json.loads(result).get("certificate")
        return len(cert["steps"]) if cert else 0
    return 0


def setup(w, workload, seed, workdir):
    """Generate the pool, write its input files, and warm up: the smallest
    unit of every op kind runs once, untimed."""
    units = w.BUILDERS[workload](seed, workdir)
    smallest = {}
    for unit in units:
        kind = unit[0].kind
        if kind not in smallest or unit[0].size < smallest[kind][0].size:
            smallest[kind] = unit
    warm = Runner(w)
    for unit in smallest.values():
        warm.run_unit(unit, len(unit))
    return units


def pass_order(workload, seed, n_units, pass_no):
    order = list(range(n_units))
    random.Random(f"order:{workload}:{seed}:{pass_no}").shuffle(order)
    return order


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for aa in (even, odd):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _betai(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics. A pool mixes ops of very different cost, and a
    single order statistic jumps between neighbouring ops from run to
    run; this estimate moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, start=1):
        cur = _betai(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def properties(units) -> dict:
    """Input properties per op kind and input shape: count, sizes, mean
    density and mean share of elements deleted."""
    out = {}
    for unit in units:
        for op in unit:
            kind = op.kind + (f" ({op.props['shape']})"
                              if "shape" in op.props else "")
            row = out.setdefault(kind, {"ops": 0, "sizes": [],
                                           "density": [],
                                           "deletable_share": []})
            row["ops"] += 1
            row["sizes"].append(op.size)
            for k in ("density", "deletable_share"):
                if k in op.props:
                    row[k].append(op.props[k])
    for row in out.values():
        row["sizes"] = [min(row["sizes"]), max(row["sizes"])]
        for k in ("density", "deletable_share"):
            row[k] = round(statistics.fmean(row[k]), 4) if row[k] else None
    return out


def op_records(units, runner) -> list:
    return [{"key": op.key, "kind": op.kind, "size": op.size, "det": op.det,
             "times_ms": [round(1000 * t, 4)
                          for t in runner.times.get(op.key, ())],
             "median_ms": (round(1000 * statistics.median(
                 runner.times[op.key]), 4) if op.key in runner.times
                 else None),
             "props": op.props}
            for unit in units for op in unit]


def timed_stream(runner, units, args):
    """Whole passes until --seconds of op time (or --ops ops) are done:
    the run ends at the pass boundary nearest to --seconds."""
    samples, failed, passes = [], 0, 0
    while True:
        for ui in pass_order(args.workload, args.seed, len(units), passes):
            budget = (args.ops - len(samples)) if args.ops else len(units[ui])
            if budget <= 0:
                break
            times, bad = runner.run_unit(units[ui], budget)
            samples += times
            failed += bad
        passes += 1
        done = sum(samples)
        if done + done / passes / 2 >= args.seconds or (
                args.ops and len(samples) >= args.ops):
            return samples, failed, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dismantle", "__init__.py")):
        print(f"error: no dismantle sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import dismantle
    import workloads as w
    if not os.path.abspath(dismantle.__file__).startswith(SRC + os.sep):
        print(f"error: imported dismantle from {dismantle.__file__}",
              file=sys.stderr)
        return 2
    t_import = time.process_time()  # CPU time since the process started

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return _measure(args, w, t_import, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _measure(args, w, t_import, workdir) -> int:
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        t0 = time.process_time()
        units = setup(w, args.workload, args.seed, workdir)
        setups.append(time.process_time() - t0)
    gc.collect()
    gc.freeze()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(),
              "machine": platform.machine(), "units": len(units)}
    if args.trace:
        metrics, runner, attempted, failed = _traced(args, w, units, record)
    else:
        runner = Runner(w, probe=True)
        samples, failed, passes = timed_stream(runner, units, args)
        attempted = len(samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # one pass with every op at its median time over the passes
        medians = [statistics.median(ts) for ts in runner.times.values()]
        raw = {
            "setup_s": t_import + statistics.median(setups),
            "ops_per_s": len(medians) / sum(medians),
            "op_p50_ms": 1000 * quantile(samples, 0.5),
            "op_p90_ms": 1000 * quantile(samples, 0.9),
        }
        # the same at the nominal machine speed, from the probes that ran
        # before every op (see speed.py)
        f = speed.factor(runner.probes)
        metrics = {
            "setup_s": (raw["setup_s"] * f, "s"),
            "ops_per_s": (raw["ops_per_s"] / f, "1/s"),
            "op_p50_ms": (raw["op_p50_ms"] * f, "ms"),
            "op_p90_ms": (raw["op_p90_ms"] * f, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        record.update(passes=passes, samples=len(samples),
                      setup_runs_s=setups, import_s=t_import,
                      speed_factor=f, raw_metrics=raw, op_s=samples,
                      probe_s=runner.probes)
    fail_ratio = failed / attempted if attempted else 1.0
    fingerprint = runner.fingerprint(units)
    record.update(attempted=attempted, failed=failed, fail_ratio=fail_ratio,
                  failures=runner.failures[:50], fingerprint=fingerprint,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  properties=properties(units),
                  ops=op_records(units, runner))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  units {len(units)}  "
          f"passes {record.get('passes', 1)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':48s} {fail_ratio:14.6g} ({failed}/{attempted})")
    print(f"  fingerprint {fingerprint}")
    for kind, row in record["properties"].items():
        print(f"  input {kind}: {row['ops']} ops, sizes "
              f"{row['sizes'][0]}-{row['sizes'][1]}, density "
              f"{row['density']}, deletable share {row['deletable_share']}")
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)),
                    exist_ok=True)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _traced(args, w, units, record):
    """One pass untraced, then the same pass traced; the spans give the
    per-layer metrics and the difference of the two the tracing cost."""
    from tracer import Tracer, layer_metrics

    order = pass_order(args.workload, args.seed, len(units), 0)
    if args.ops:
        keep, n = [], 0
        for ui in order:
            if n >= args.ops:
                break
            keep.append(ui)
            n += len(units[ui])
        order = keep
    plain = Runner(w, clock=time.perf_counter)
    untraced = sum(sum(plain.run_unit(units[ui], len(units[ui]))[0])
                   for ui in order)
    tracer = Tracer()
    tracer.install()
    runner = Runner(w, tracer, clock=time.perf_counter)
    runner.verified = plain.verified
    traced = sum(sum(runner.run_unit(units[ui], len(units[ui]))[0])
                 for ui in order)
    attempted = plain.ops_run + runner.ops_run
    runner.failures = plain.failures + runner.failures
    failed = len(runner.failures)

    agg = tracer.aggregate()
    metrics = layer_metrics(agg, tracer.counts())
    metrics["certificate.steps"] = (runner.cert_steps, "count")
    metrics["cli.stdout_bytes"] = (runner.stdout_bytes, "bytes")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    record.update(untraced_s=untraced, traced_s=traced,
                  spans=len(tracer.end),
                  layers={name: {"calls": c, "incl_s": i, "self_s": s}
                          for name, (c, i, s) in sorted(agg.items())},
                  counts=tracer.counts())
    if args.record:
        tracer.write_spans(args.record + ".spans.tsv")
    return metrics, runner, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
