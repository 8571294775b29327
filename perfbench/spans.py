"""Per-layer spans recorded from outside qdigits.

Tracer.installed() rebinds each traced public function, under its name,
in every loaded qdigits module that holds it, so calls between modules
and within one module both pass through a span.  The stdlib Fraction
normalisation is traced by giving `fractions` a `math` whose gcd counts
and times each call.  Everything is restored on exit.

A span's self time is its duration minus the time its child spans
cover; gcd calls are children of the span that made them.  Spans stay
in memory and are written out once, by write_spans(), after the run.
"""

import contextlib
import fractions
import math
import time
import types
from collections import defaultdict
from fractions import Fraction

import qdigits
from qdigits import cli, digitsum, limiting_curve, odometer, takagi, trollope_delange


# span name -> (defining module, function name, work units per call or None)
TRACED = {
    "digitsum.partial_sum_fast": (digitsum, "partial_sum_fast", lambda n, p: n.bit_length()),
    "digitsum.partial_sum_progression": (
        digitsum, "partial_sum_progression", lambda base, h, count, p: count + 1,
    ),
    "digitsum.partial_sum_prefix": (digitsum, "partial_sum_prefix", lambda n, p: n),
    "takagi.takagi_dyadic_exact": (
        takagi, "takagi_dyadic_exact", lambda t, a: Fraction(t).denominator.bit_length() - 1,
    ),
    "trollope_delange.td_generalized": (trollope_delange, "td_generalized", None),
    "trollope_delange.g_profile": (trollope_delange, "g_profile", None),
    "odometer.num_value": (odometer, "num_value", None),
    "odometer.find_stabilizing_levels": (odometer, "find_stabilizing_levels", None),
    "limiting_curve.theorem1_experiment": (limiting_curve, "theorem1_experiment", None),
    "limiting_curve.verify_identity_8": (limiting_curve, "verify_identity_8", None),
    "limiting_curve.build_fluctuation_curve": (limiting_curve, "build_fluctuation_curve", None),
    "limiting_curve.target_curve": (limiting_curve, "target_curve", None),
    "limiting_curve.sup_distance": (limiting_curve, "sup_distance", None),
    "cli.main": (cli, "main", None),
}
RANDOM_STATE = "odometer.random_state"  # a classmethod, rebound on the class


def _exact_values(result):
    """The Fractions a traced function returned, for the bit-size record."""
    if isinstance(result, Fraction):
        return (result,)
    if isinstance(result, (list, tuple)):
        return [v for v in result if isinstance(v, Fraction)]
    if isinstance(result, limiting_curve.CurveSamples):
        return [v for v in result.values if isinstance(v, Fraction)]
    if isinstance(result, limiting_curve.LimitingBridge):
        return result.sup_distances
    return ()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, self seconds]
        self._stack = []  # [span index, seconds covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.root_s = 0.0  # time covered by spans with no parent
        self.gcd_calls = 0
        self.gcd_s = 0.0
        self.max_num_bits = 0
        self.max_den_bits = 0

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1][0] if stack else -1, 0.0, 0.0, 0.0])
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(index, start, end, frame[1])
            bookkeeping = clock()
            self.calls[name] += 1
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            for v in _exact_values(result):
                self.max_num_bits = max(self.max_num_bits, abs(v.numerator).bit_length())
                self.max_den_bits = max(self.max_den_bits, v.denominator.bit_length())
            if stack:  # tracer time, not the caller's self time
                stack[-1][1] += clock() - bookkeeping
            return result

        return traced

    def _close(self, index, start, end, child_s):
        span = self.spans[index]
        duration = end - start
        span[2:] = [start, end, duration - child_s]
        self.self_s[span[0]] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration

    def _gcd(self):
        stack = self._stack
        clock = time.perf_counter
        gcd = math.gcd

        def traced_gcd(a, b):
            start = clock()
            g = gcd(a, b)
            elapsed = clock() - start
            self.gcd_calls += 1
            self.gcd_s += elapsed
            if stack:
                stack[-1][1] += elapsed
            else:
                self.root_s += elapsed
            return g

        return traced_gcd

    @contextlib.contextmanager
    def installed(self):
        """Route every traced function and fractions' gcd through spans."""
        restore = []
        modules = [qdigits, cli, digitsum, limiting_curve, odometer, takagi, trollope_delange]
        for name, (home, attr, work) in TRACED.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)
        state_cls = odometer.OdometerState
        random_state = vars(state_cls)["random_state"]
        restore.append((state_cls, "random_state", random_state))
        state_cls.random_state = classmethod(self._wrap(RANDOM_STATE, random_state.__func__, None))
        fake_math = types.SimpleNamespace(**vars(math))
        fake_math.gcd = self._gcd()
        restore.append((fractions, "math", math))
        fractions.math = fake_math
        try:
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def write_spans(self, path):
        """Spans as tab-separated name, parent index, start, end, self seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tparent\tstart\tend\tself_s\n")
            for i, (name, parent, start, end, self_s) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\n")

    def layer_metrics(self, ops: int, traced_wall: float, untraced_wall: float, bytes_out: int):
        """Per-layer metrics per op; 0 for a layer the workload never entered."""
        def per_op(x):
            return x / ops

        m = {}
        for name, unit in (
            ("digitsum.partial_sum_fast", "bits_in"),
            ("digitsum.partial_sum_progression", "points"),
            ("digitsum.partial_sum_prefix", "terms"),
            ("takagi.takagi_dyadic_exact", "unwind_steps"),
        ):
            m[f"{name}.calls"] = per_op(self.calls[name])
            m[f"{name}.self_s"] = per_op(self.self_s[name])
            m[f"{name}.{unit}"] = per_op(self.work[name])
        for name in ("trollope_delange.td_generalized", "trollope_delange.g_profile"):
            m[f"{name}.calls"] = per_op(self.calls[name])
            m[f"{name}.self_s"] = per_op(self.self_s[name])
        odometer_names = (RANDOM_STATE, "odometer.num_value", "odometer.find_stabilizing_levels")
        m["odometer.calls"] = per_op(sum(self.calls[n] for n in odometer_names))
        m["odometer.self_s"] = per_op(sum(self.self_s[n] for n in odometer_names))
        for fn in (
            "theorem1_experiment", "verify_identity_8", "build_fluctuation_curve",
            "target_curve", "sup_distance",
        ):
            m[f"limiting_curve.{fn}.self_s"] = per_op(self.self_s[f"limiting_curve.{fn}"])
        m["cli.self_s"] = per_op(self.self_s["cli.main"])
        m["cli.bytes_out"] = per_op(bytes_out)
        m["fraction.gcd_calls"] = per_op(self.gcd_calls)
        m["fraction.gcd_s"] = per_op(self.gcd_s)
        m["result.max_num_bits"] = self.max_num_bits
        m["result.max_den_bits"] = self.max_den_bits
        m["trace.overhead_s"] = per_op(traced_wall - untraced_wall)
        m["trace.unattributed_s"] = per_op(traced_wall - self.root_s)
        return m
