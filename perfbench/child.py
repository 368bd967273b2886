"""One fresh benchmark process: import, set up, warm up, run timed commands.

Started by ``run.py``; writes one JSON result file and exits. The set-up time
runs from the parent's spawn timestamp (``--spawned``, CLOCK_MONOTONIC, which
is shared by all processes) to the start of the first timed command, less
the kernel runs that sample the host's speed just after the imports. A second
sample is taken after the set-up; ``setup_kernel_s`` is the mean of the two.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import pgdlab  # noqa: E402

T_IMPORTED = time.monotonic()

import workloads  # noqa: E402
from tracer import Tracer, per_layer  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_SECONDS = 0.2
KERNEL_REPEATS = 5


def kernel():
    """Wall time of a fixed reference kernel that does not touch pgdlab.

    It mixes what interpreter-bound commands spend their time on: interpreted
    Python, small numpy calls and a small BLAS product. Timed between
    commands, it tracks how fast the host runs such code at that moment. It
    allocates nothing large, so it leaves the peak RSS alone.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    v = np.ones(50)
    for _ in range(300):
        v = v / np.linalg.norm(v)
    m = np.ones((120, 120))
    for _ in range(5):
        m = m @ m * 1e-3
    return time.perf_counter() - t0


def host_speed():
    """Median of KERNEL_REPEATS kernel times: the host's speed at this moment."""
    return statistics.median(kernel() for _ in range(KERNEL_REPEATS))


def git_sha():
    """HEAD of the checkout's own git metadata, or None outside a repository.

    Discovery stops at the checkout root, so a checkout that is not a
    repository does not report the SHA of an enclosing one.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def command_seeds(seed, setup_index, stream, pool=None):
    """Seeds derived from the workload seed, one stream per (set-up, purpose).

    Without a pool they are random; with one, the stream walks through the
    pool in turn from a random start, so a run uses its seeds evenly.
    """
    rng = np.random.default_rng([seed, setup_index, stream])
    if pool is None:
        while True:
            yield int(rng.integers(0, 2**31 - 1))
    start = int(rng.integers(len(pool)))
    for i in itertools.count(start):
        yield pool[i % len(pool)]


def gradient_probe(problem, x):
    """Median wall time of Problem.gradient at x, in microseconds."""
    times = []
    stop = time.perf_counter() + PROBE_SECONDS
    while len(times) < 20 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        problem.gradient(x)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-index", type=int, required=True)
    parser.add_argument("--budget", type=float, default=None,
                        help="seconds of timed commands (at least one runs)")
    parser.add_argument("--commands", type=int, default=None,
                        help="exact number of timed commands (overrides --budget)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="paper", choices=["paper", "tiny"])
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.abspath(pgdlab.__file__)) != os.path.join(SRC, "pgdlab"):
        raise SystemExit(f"pgdlab imported from {pgdlab.__file__}, not from {SRC}")

    t0 = time.monotonic()
    opening_kernel_s = host_speed()
    kernel_overhead_s = time.monotonic() - t0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.command = "setup"
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(args.workdir, exist_ok=True)
    setup_seeds = command_seeds(args.seed, args.setup_index, 0, workload.seeds)
    instance_seed, warm_seed = next(setup_seeds), next(setup_seeds)
    seeds = command_seeds(args.seed, args.setup_index, 1, workload.seeds)
    workload.setup(args.workdir, instance_seed, args.size)

    if tracer:
        tracer.command = "warmup"
    t0 = time.monotonic()
    workload.warmup(warm_seed)
    first_command_s = time.monotonic() - t0

    t_first = time.monotonic()
    closing_kernel_s = host_speed()
    commands = []
    adjust = workload.speed_adjusted
    before = closing_kernel_s
    while True:
        i = len(commands)
        if args.commands is not None:
            if i >= args.commands:
                break
        elif i > 0 and time.monotonic() - t_first >= args.budget:
            break
        seed = next(seeds)
        if tracer:
            tracer.command = i
        t0 = time.perf_counter()
        try:
            output = workload.command(seed)
            error = None
        except Exception as exc:  # a raising command counts as failed
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.command = None
        if error is None:
            try:
                error = workload.check(output)
            except Exception as exc:  # output the check cannot read counts as failed
                error = f"check {type(exc).__name__}: {exc}"
        record = {"seed": seed, "s": elapsed, "error": error}
        if adjust:
            after = kernel()
            record["kernel_s"] = (before + after) / 2
            before = after
        commands.append(record)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_index": args.setup_index,
        "import_s": T_IMPORTED - T_START,
        # the opening kernel runs are instrumentation, not set-up work
        "setup_s": t_first - args.spawned - kernel_overhead_s,
        "setup_kernel_s": (opening_kernel_s + closing_kernel_s) / 2,
        "first_command_s": first_command_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer:
        tracer.uninstall()
        problem, x = workload.probe
        result["per_layer"] = per_layer(tracer.spans, len(commands))
        result["per_layer"]["engine.gradient.us"] = (gradient_probe(problem, x), "us")
        result["per_layer"]["engine.gradient.bytes_computed"] = (2 * problem.A.nbytes, "B")
        tracer.write(os.path.splitext(args.out)[0] + ".spans.json")
    shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
