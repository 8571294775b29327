"""Run one qdigits benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bridge --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program under test is
that checkout's src/qdigits, imported in-process.  Workloads are
closed-loop with one client: each op starts when the previous one has
returned.  After an untimed warm-up on toy-sized inputs, which runs the
same code paths, ops run for --seconds.  Every answer, warm-up included,
is checked after the timed region; an op fails if it raises or its
answer is wrong.

On a shared host the speed of this process drifts by up to a factor of
two, in phases of seconds to minutes.  So the loop also times a reference
computation (fixed stdlib long-integer Fraction sums, independent of
qdigits) every 50 ms from a timer signal, during ops as well as between
them, and the throughput metric scales each op's latency by the mean
reference time during it: it is the throughput on a host that runs the
reference in REFERENCE_NOMINAL_S.
Set-up is timed in ten fresh interpreters after the timed loop (between
ops they would disturb the reference samples that follow them), and
setup_s is their median.  The raw throughput and latencies go to the
record line.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs ops untraced for half of --seconds, replays the same
inputs with spans around each layer (see spans.py), and prints the
per-layer metrics, each per op.  The spans are written to
perfbench/_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment, the sample count, the raw throughput, the median and tail
latencies, the reference quartiles and the first failures.
"""

import argparse
import bisect
import collections
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_PROBES = 10
WARMUP_S = 0.3
REFERENCE_EVERY_S = 0.05
REFERENCE_NOMINAL_S = 1e-3
_operands = random.Random(0)
REFERENCE_OPERANDS = [
    (_operands.getrandbits(8192) | 1, _operands.getrandbits(8192) | 1) for _ in range(3)
]

# Times `import qdigits` plus input generation in a fresh interpreter;
# the benchmark's own import is left out.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import qdigits
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{name!r}]().inputs({seed!r})
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


class Raised:
    """An op that raised instead of answering."""

    def __init__(self, message):
        self.message = message


class Ledger:
    """Answers kept for checking after the timed region.

    The first answer for each distinct input is kept whole and later gets
    the workload's independent check.  A repeat is compared with that
    answer's digest as it arrives, so memory stays bounded by the number
    of distinct inputs, not by the number of ops.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.digests = {}
        self.matched = {}  # input -> repeats equal to the first answer
        self.failures = []  # raised ops and repeats that differ
        self.attempted = 0
        self.bytes_out = 0

    def add(self, inp, result):
        self.attempted += 1
        if isinstance(result, Raised):
            self.failures.append(result.message)
            return
        answer = self.workload.collect(result)
        self.bytes_out += self.workload.bytes_out(answer)
        if inp not in self.first:
            self.first[inp] = answer
            self.matched[inp] = 0
            return
        if inp not in self.digests:
            self.digests[inp] = self.workload.digest(self.first[inp])
        if self.workload.digest(answer) == self.digests[inp]:
            self.matched[inp] += 1
        else:
            self.failures.append(f"repeat of input {inp!r:.80} differs from its first answer")

    def verify(self) -> list[str]:
        """Every failure message; a wrong first answer fails its matching repeats too."""
        inputs = list(self.first)
        verdicts = self.workload.check([(inp, self.first[inp]) for inp in inputs])
        failures = list(self.failures)
        for inp, message in zip(inputs, verdicts):
            if message is not None:
                failures += [message] * (1 + self.matched[inp])
        return failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(name, seed):
    """Set-up times of SETUP_PROBES fresh interpreters, one after another."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def reference_seconds():
    """Time one run of the reference: a sum of three ratios of fixed
    8192-bit integers (stdlib long-integer products and gcds, independent
    of qdigits, about 1.3 ms on a quiet host)."""
    start = time.perf_counter()
    total = Fraction(0)
    for a, b in REFERENCE_OPERANDS:
        total += Fraction(a, b)
    return time.perf_counter() - start


class Sampler:
    """Times the reference every REFERENCE_EVERY_S from a SIGALRM timer.

    The handler runs between bytecodes of whatever is running, ops
    included, so a long op is sampled all through, not only at its ends.
    Samples are kept with the time they ended; `spent` is the wall time
    the handler took, which run_ops subtracts from the op it interrupted.
    One sample is taken on entry and one on exit, so every op has a
    sample before it and after it.
    """

    def __init__(self):
        self.ends = []
        self.seconds = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # the timer fired inside the handler
            return
        self._busy = True
        start = time.perf_counter()
        took = reference_seconds()
        self.ends.append(time.perf_counter())
        self.seconds.append(took)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def around(self, start, end):
        """The mean reference time of the samples taken during [start, end],
        or of the two samples around it when none was."""
        i = bisect.bisect(self.ends, start)
        j = bisect.bisect(self.ends, end)
        if j > i:
            return statistics.fmean(self.seconds[i:j])
        return (self.seconds[i - 1] + self.seconds[i]) / 2


@dataclasses.dataclass
class Loop:
    """What one closed loop measured; refs and marks only when sampled."""

    latencies: list = dataclasses.field(default_factory=list)
    used: list = dataclasses.field(default_factory=list)
    wall: float = 0.0
    refs: list = dataclasses.field(default_factory=list)  # reference time during each op
    marks: list = dataclasses.field(default_factory=list)  # every reference sample


def run_ops(workload, inputs, ledger, work, numbering, seconds=None, sample=False):
    """Closed loop over inputs; stops after `seconds` or when inputs run out.

    With `sample`, a Sampler times the reference all through the loop;
    each op's latency leaves out the time the sampler took inside it, and
    its ref is the sampler's mean reference time around it.
    """
    loop = Loop()
    sampler = Sampler()
    spans = []
    with sampler if sample else contextlib.nullcontext():
        start = end = time.perf_counter()
        for inp in inputs:
            i = next(numbering)
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                result = workload.op(inp, work, i)
            except Exception:  # a raising op is a failed op; the run goes on
                result = Raised(traceback.format_exc(limit=4))
            end = time.perf_counter()
            loop.latencies.append(end - t0 - (sampler.spent - spent))
            loop.used.append(inp)
            spans.append((t0, end))
            ledger.add(inp, result)
            if seconds is not None and end - start >= seconds:
                break
    loop.wall = end - start
    if sample:
        loop.marks = sampler.seconds
        loop.refs = [sampler.around(t0, t1) for t0, t1 in spans]
    return loop


def norm_throughput(loop):
    """Distinct inputs per second of normalised op time.

    Each op's latency is scaled by REFERENCE_NOMINAL_S / its ref, which
    gives the time it would take on a host running the reference in
    REFERENCE_NOMINAL_S; each input's repeats are averaged, so a partly
    finished cycle over the inputs does not change the mix.
    """
    costs = collections.defaultdict(list)
    for inp, t, r in zip(loop.used, loop.latencies, loop.refs):
        costs[inp].append(t * REFERENCE_NOMINAL_S / r)
    return len(costs) / sum(statistics.fmean(c) for c in costs.values())


def order_stats(values):
    """Median, and the highest percentile with at least ten samples above it
    (the maximum when there are fewer than 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return statistics.median(ordered), ordered[k], round(100 * (k + 1) / n, 3)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qdigits").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def layer_shares(metrics):
    """Each layer's self time as a share of the traced time per op."""
    keys = [k for k in metrics if k.endswith("self_s")] + ["fraction.gcd_s", "trace.unattributed_s"]
    traced = sum(metrics[k] for k in keys)
    return {k: round(metrics[k] / traced, 4) for k in keys if metrics[k]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qdigits" / "__init__.py").is_file():
        print(f"run.py: no qdigits sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(why)}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(BENCH)]
    import qdigits
    import spans
    import workloads

    if Path(qdigits.__file__).resolve().parent != SRC / "qdigits":
        print(f"run.py: imported qdigits from {qdigits.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    ledger = Ledger(workload)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    numbering = itertools.count()
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": commit(),
        "src_sha256": src_digest(),
    }
    if hasattr(workload, "rejected_seeds"):
        record["rejected_seeds"] = workload.rejected_seeds
    try:
        warmup = itertools.cycle(workload.inputs(args.seed, toy=True))
        run_ops(workload, warmup, ledger, work, numbering, WARMUP_S)
        if args.trace == 0:
            loop = run_ops(
                workload, itertools.cycle(inputs), ledger, work, numbering, args.seconds, True
            )
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = setup_seconds(args.workload, args.seed)
            p50_ms, tail_ms, tail_pct = order_stats([t * 1e3 for t in loop.latencies])
            metrics = {
                "setup_s": statistics.median(setups),
                "norm_throughput_ops_s": norm_throughput(loop),
                "peak_rss_mb": peak_rss_mb,
            }
            repeats = collections.Counter(loop.used).values()
            record.update(
                samples=len(loop.latencies),
                distinct_inputs=len(repeats),
                fewest_repeats=min(repeats),
                throughput_ops_s=len(loop.latencies) / sum(loop.latencies),
                op_p50_ms=p50_ms,
                op_tail_ms=tail_ms,
                tail_percentile=tail_pct,
                setup_s_quartiles=statistics.quantiles(setups, n=4),
                reference_samples=len(loop.marks),
                reference_ms_quartiles=statistics.quantiles([t * 1e3 for t in loop.marks], n=4),
            )
        else:
            untraced = run_ops(
                workload, itertools.cycle(inputs), ledger, work, numbering, args.seconds / 2
            )
            used = untraced.used
            ledger.bytes_out = 0
            tracer = spans.Tracer()
            with tracer.installed():
                traced = run_ops(workload, used, ledger, work, numbering)
            metrics = tracer.layer_metrics(len(used), traced.wall, untraced.wall, ledger.bytes_out)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
            record.update(samples=len(used), spans=len(tracer.spans), shares=layer_shares(metrics))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = ledger.verify()
    record["fail_ratio"] = len(failures) / ledger.attempted
    record["failures"] = failures[:5]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": ledger.attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
