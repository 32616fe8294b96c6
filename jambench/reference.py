"""Reference kernels: fixed work timed beside a workload to follow host speed.

The host's processor speed is not constant: on the 2-core box the same
numpy loop takes 13 ms in some stretches and 20 ms in others, and the
stretches last from seconds to minutes.  Raw times of two runs of the same
code can then differ by half again, far beyond any bound worth checking.

Each workload is therefore timed together with a kernel that does the same
kind of work as its hot path, with numpy and Python alone and on fixed
inputs, from the benchmark's own code (so no change to jamlab can move it).
A ``Clock`` runs the kernel on a timer while the workload runs and reports
every operation's time at the reference speed:

    time at reference speed = measured time * NOMINAL / kernel time,

where the kernel time is the median of the samples taken while the
operation ran (or next to it, for an operation shorter than the timer's
period), and ``NOMINAL`` is the kernel's median time on the 2-core box.
The reported times read as seconds on that box in its usual state; a
change to jamlab moves them as it moves wall time.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import marshal
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025    # timer period of the sampler
NEAR = 3              # samples taken next to an operation with fewer inside it


def cf_kernel():
    """CF arithmetic as in ``match_map``: FFT, phase unwrap, power, quotient."""
    w = np.linspace(-30.0, 30.0, 4096)
    cf = np.exp(-np.abs(w)) * np.exp(0.3j * w)
    floor = np.exp(-0.5 * np.minimum(w * w, 600.0))

    def run():
        phi = np.fft.ifft(np.fft.fft(cf))
        power = np.abs(phi) ** 1.7 * np.exp(1.7j * np.unwrap(np.angle(phi)))
        quotient = power / np.maximum(floor, 1e-300)
        total = 0.0
        for k in range(200):
            entry = {"k": k, "v": k * 0.5}
            total += entry["v"]
        return float(np.abs(quotient[:64]).sum()) + total
    return run


def monte_carlo_kernel():
    """One Monte Carlo chunk as in ``deviate``: draws, table lookup, moments."""
    knots = np.linspace(-8.0, 8.0, 2048)
    curve = np.tanh(knots)

    def run():
        rng = np.random.default_rng([7, 0, 1])
        x = rng.normal(0.0, 1.0, 1 << 13)
        n = rng.laplace(0.0, 0.7, 1 << 13)
        u = 0.7 * x + n
        err = (x - np.interp(u, knots, curve)) ** 2
        return float(err.sum() + (err * err).sum())
    return run


def search_kernel():
    """Search arithmetic as in ``worst_noise``: FFT convolution, a small
    linear solve and scalar Python steps."""
    rng = np.random.default_rng(11)
    f = np.exp(-np.linspace(-6.0, 6.0, 2048) ** 2)
    g = np.exp(-np.abs(np.linspace(-6.0, 6.0, 2048)))
    m = rng.normal(size=(40, 40))
    spd = m @ m.T + 40.0 * np.eye(40)
    rhs = rng.normal(size=40)

    def run():
        total = 0.0
        for _ in range(3):
            conv = np.fft.irfft(np.fft.rfft(f, 4096) * np.fft.rfft(g, 4096), 4096)
            step = np.linalg.solve(spd, rhs)
            total += float(conv[2048] + step[0])
        for k in range(600):
            total += math.exp(-k * 1e-3) * math.sqrt(k + 1.0)
        return total
    return run


def format_kernel():
    """Output work as in ``cli_runs``: floats to CSV text and back."""
    values = np.linspace(-7.0, 7.0, 900).tolist()

    def run():
        rows = [",".join(f"{v:.17g}" for v in values[i:i + 3])
                for i in range(0, len(values), 3)]
        text = "\n".join(rows)
        return sum(float(t) for t in text.split("\n")[-1].split(","))
    return run


def import_kernel():
    """Module loading as in set-up: unmarshal bytecode and run its body."""
    source = "\n".join(
        f"def f{i}(x, y=1):\n    return [x * {i} + y for _ in range(3)]\n"
        f"class C{i}:\n    a = {i}\n    def m(self):\n        return self.a\n"
        for i in range(60))
    blob = marshal.dumps(compile(source, "<reference>", "exec"))

    def run():
        namespace = {}
        exec(marshal.loads(blob), namespace)
        return len(namespace)
    return run


# kernel, and its median time in seconds on the 2-core box
KERNELS = {
    "match_map": (cf_kernel, 0.68e-3),
    "deviate": (monte_carlo_kernel, 1.47e-3),
    "worst_noise": (search_kernel, 0.94e-3),
    "cli_runs": (format_kernel, 1.26e-3),
    "setup": (import_kernel, 0.86e-3),
}


class Clock:
    """Follows the host's speed with a reference kernel and scales operation
    times to the reference speed.

    While ``running``, a timer signal runs the kernel every ``INTERVAL_S``
    between two bytecodes of the main thread, in the middle of operations
    too, and records when it ran and how long it took.  ``spent`` sums the
    time the sampler took, so that callers can leave it out of what they
    time.  ``sample`` runs the kernel at once, for operations the timer
    cannot interrupt (a child process's set-up); ``warm`` comes first there.
    """

    def __init__(self, kind: str):
        build, self.nominal = KERNELS[kind]
        self._kernel = build()
        self._kernel()
        self.starts, self.durations = [], []
        self.spent = 0.0

    def warm(self) -> None:
        """Run the kernel twice without recording it, to refill the caches
        after another process ran."""
        self._kernel()
        self._kernel()

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float, measured: float) -> float:
        """``measured`` at the reference speed, for an operation that ran
        from ``start`` to ``end`` (``time.perf_counter``).

        The kernel time is the median of the samples taken while the
        operation ran or, when there are fewer than ``NEAR``, of the
        ``NEAR`` samples next to it on either side.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < NEAR:
            lo, hi = max(lo - NEAR, 0), hi + NEAR
        return measured * self.nominal / statistics.median(self.durations[lo:hi])
