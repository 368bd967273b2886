"""pgdlab benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each set-up is a fresh child process
(``child.py``) with BLAS pinned to one thread; the child imports ``pgdlab``
from ``src/``, builds its inputs from the seed, runs one untimed warm-up
command and then timed commands, checking each output.

``--trace 0`` starts SETUPS[workload] children one after another, each timing
commands for an equal share of SECONDS, and reports the end-to-end metrics.
Set-up times, and on an interpreter-bound workload also each command's time,
are rescaled to the reference speed of a fixed kernel (``child.kernel``)
timed around them, which takes out most of the drift in speed of a shared
host; the raw medians are printed too. ``--trace 1`` runs one untraced and one traced
child on the same seeds and the same fixed number of commands, and reports the
per-layer metrics. Human-readable lines come first; the last line of standard
output is the JSON result. Full results, environment and spans
are written under ``.perfbench/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
# Nominal seconds per command of each workload: fixes the traced command count
# for a given --seconds, so per-layer counts do not depend on machine speed.
NOMINAL_S = {"mcp_solve": 1.2, "small_bundles": 0.1, "analyze_mcp": 6.0, "verify_all": 1.5}
# Set-ups per end-to-end run, more where a set-up is cheap; setup_s and
# peak_rss_mb are medians over them.
SETUPS = {"mcp_solve": 3, "small_bundles": 7, "analyze_mcp": 3, "verify_all": 6}
DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100
# Median time of child.kernel on the 2-vCPU host the benchmark was written on;
# it only sets the scale of the rescaled set-up and command times.
REFERENCE_KERNEL_S = 3.0e-3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, setup_index, deadline, trace, budget=None, commands=None):
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{setup_index}-{trace}"
    out = os.path.join(OUT, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-index", str(setup_index), "--trace", str(trace), "--size", args.size,
           "--workdir", os.path.join(OUT, "work", tag), "--out", out]
    if commands is not None:
        cmd += ["--commands", str(commands)]
    else:
        cmd += ["--budget", repr(budget)]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **BLAS_ENV)
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise SystemExit(f"child {tag} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(out, encoding="ascii") as fh:
        return json.load(fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups = SETUPS[args.workload]
    children = [spawn(args, i, deadline, 0, budget=args.seconds / setups)
                for i in range(setups)]
    commands = [c for child in children for c in child["commands"]]
    times = [c["s"] for c in commands]
    setup_times = [c["setup_s"] * REFERENCE_KERNEL_S / c["setup_kernel_s"] for c in children]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "command_s.p50": metric(command_p50(commands), "s"),
        "peak_rss_mb": metric(statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }
    samples = {"setup_s": len(children), "command_s.p50": len(times),
               "peak_rss_mb": len(children)}
    extra = [f"raw setup_s = {statistics.median(c['setup_s'] for c in children)!r} s "
             f"(n={len(children)})"]
    if len(times) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(scaled_times(commands), n=10)[-1]
        extra.append(f"command_s.p90 = {p90!r} s (n={len(times)})")
    if "kernel_s" in commands[0]:
        kernel_ms = 1e3 * statistics.median(c["kernel_s"] for c in commands)
        extra.append(f"raw command_s.p50 = {statistics.median(times)!r} s (n={len(times)}), "
                     f"kernel_ms.p50 = {kernel_ms!r} ms")
    return children, commands, metrics, samples, extra


def command_p50(commands):
    return statistics.median(scaled_times(commands))


def scaled_times(commands):
    """The command times, or for an interpreter-bound workload (its commands
    carry the kernel time measured around them) each rescaled by the reference
    over its own kernel time."""
    if "kernel_s" not in commands[0]:
        return [c["s"] for c in commands]
    return [c["s"] * REFERENCE_KERNEL_S / c["kernel_s"] for c in commands]


def traced(args, deadline):
    count = max(1, math.floor(args.seconds / 2 / NOMINAL_S[args.workload]))
    plain = spawn(args, 0, deadline, 0, commands=count)
    child = spawn(args, 0, deadline, 1, commands=count)
    metrics = {name: metric(value, unit) for name, (value, unit) in child["per_layer"].items()}
    metrics["process.import_s"] = metric(plain["import_s"], "s")
    metrics["process.first_command_s"] = metric(plain["first_command_s"], "s")
    overhead = command_p50(child["commands"]) / command_p50(plain["commands"]) - 1.0
    metrics["tracing.overhead_frac"] = metric(overhead, "ratio")
    samples = {name: count for name in metrics}
    return [plain, child], plain["commands"] + child["commands"], metrics, samples, []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["paper", "tiny"], default="paper",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "pgdlab", "__init__.py")):
        print(f"error: no pgdlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    run = traced if args.trace else end_to_end
    children, commands, metrics, samples, extra = run(args, deadline)

    failures = [c for c in commands if c["error"]]
    env = children[0]["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(commands)} commands, {len(children)} processes")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']} (n={samples[name]})")
    for line in extra:
        print(line)
    print(f"failed_frac = {len(failures) / len(commands)!r} ({len(failures)}/{len(commands)})")
    for c in failures[:10]:
        print(f"  failed seed {c['seed']}: {c['error'][:300]}")

    result = {"correct": not failures, "attempted": len(commands),
              "failed": len(failures), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, commands=commands)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
