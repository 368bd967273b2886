"""Write the byte-identity artifact set of a checkout into OUTDIR.

Usage, from the root of a checkout::

    python tools/artifacts.py OUTDIR

Runs, in one process with BLAS pinned to one thread, against the ``src/``
next to this script:

* ``experiment`` lcls (30, 20, 5), iht (50, 100, 5), iht ``--residual``,
  sphere with gamma = -0.5 and 0.3, and mcp (12, 10, 2, 80), each at seeds
  0, 3 and 7 with the default step grid;
* ``experiment mcp --m 50 --n 40 --r 3 --s 800 --seed 7``;
* the lcls/iht/sphere acceptance bundles (steps at fixed fractions of the
  optimal step) at seeds 0, 9, ..., 99;
* ``verify --suite all`` at seeds 0 to 7 (seed 4 prints a failing
  ``bound_dominance.mcp`` detail line);
* ``analyze`` of one saved file per family (lcls with and without
  ``x_star``), and of a completion file whose observations are moved by
  1e-11, so that its ``x_star`` fits them only within the stationarity
  tolerance, each with no ``--eta`` and with ``--eta 0.01 0.05``;
* ``analyze`` of the paper-scale completion file (50, 40, 3, 800, seed 7)
  with no ``--eta`` and with ``--eta 1.0``, the step of the benchmark's
  ``analyze_mcp`` workload;
* the same two ``analyze`` commands on an iht file saved with s = 6 around an
  ``x_star`` with 4 nonzeros, which is no fixed point: both exit 1;
* an lcls and a sphere file whose A is square and diagonal with entries other
  than 0 and 1: ``analyze`` of the lcls file, and ``solve --out`` of both;
* the same ``analyze`` and ``solve`` commands on a copy of each file with a
  diagonal A (the two mcp files and the two above), ``problem_<name>_dense.json``,
  which this script rewrites with A in the dense ``shape``/``data`` layout
  that ``save_problem`` no longer writes for a diagonal A. Its outputs must
  equal those of the diagonal file, apart from the file name.

Every ``manifest.json``, trace CSV and saved problem file lands under OUTDIR,
and each command adds ``<name>.stdout``, ``<name>.stderr`` and
``<name>.exit`` with OUTDIR written as ``OUTDIR``. Two checkouts give the same
results when ``diff -r`` of their OUTDIRs is empty. To compare against a
commit that predates this script, copy the script into that checkout's
``tools/`` first.

Compare two such directories with::

    python tools/artifacts.py --compare OLD NEW

A ``.stdout`` file holding JSON must keep its keys and every value that is not
a float; each other file must be byte-identical (a text file that is not
shows its changed lines). The report ends with the largest relative change of
a float under each key. It exits 0 when only floats moved, else 1.

The bits of the set are recorded in ``tools/artifacts.sha256``::

    python tools/artifacts.py --digest
    python tools/artifacts.py --check

``--digest`` writes the set into a temporary directory and records one
``<sha256>  <path>`` line per file, under a header naming the numpy version,
the BLAS it was built with and the BLAS thread settings. ``--check`` writes
the set again and lists each path whose digest changed, or that is new or
gone; it exits 0 when none did, else 1. The bits depend on the platform: when
the header does not match this environment, ``--check`` says so, gives no
verdict and exits 3 without writing the set. The header does not name the
CPU, whose kernels a DYNAMIC_ARCH OpenBLAS picks at run time.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

DIGEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts.sha256")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (label, kind, flags)
EXPERIMENTS = (
    ("lcls", "lcls", ["--m", "30", "--n", "20", "--p", "5"]),
    ("iht", "iht", ["--m", "50", "--n", "100", "--s", "5"]),
    ("iht_residual", "iht", ["--m", "50", "--n", "100", "--s", "5", "--residual"]),
    ("sphere_neg", "sphere", ["--m", "15", "--n", "10", "--gamma", "-0.5"]),
    ("sphere_pos", "sphere", ["--m", "15", "--n", "10", "--gamma", "0.3"]),
    ("mcp", "mcp", ["--m", "12", "--n", "10", "--r", "2", "--s", "80"]),
)
EXPERIMENT_SEEDS = (0, 3, 7)
PAPER_MCP = ["--m", "50", "--n", "40", "--r", "3", "--s", "800", "--seed", "7"]

# (kind, params, step fractions of eta_opt), as in the acceptance suite.
BUNDLES = (
    ("lcls", {"m": 30, "n": 20, "p": 5}, (0.5, 0.8, 1.0)),
    ("iht", {"m": 50, "n": 100, "s": 5}, (0.3, 0.5, 0.7)),
    ("sphere", {"m": 15, "n": 10, "gamma": -0.5}, (0.5, 0.8, 1.0)),
)
BUNDLE_SEEDS = range(0, 100, 9)
VERIFY_SEEDS = range(8)

# (file name, kind, generator params, seed, keep x_star, move of each observation)
ANALYZE_FILES = (
    ("lcls", "lcls", {"m": 30, "n": 20, "p": 5}, 0, True, 0.0),
    ("lcls_no_x_star", "lcls", {"m": 30, "n": 20, "p": 5}, 0, False, 0.0),
    ("iht", "iht", {"m": 50, "n": 100, "s": 5}, 0, True, 0.0),
    ("sphere", "sphere", {"m": 15, "n": 10, "gamma": -0.5}, 0, True, 0.0),
    ("mcp", "mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0, True, 0.0),
    ("mcp_near_fixed", "mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0, True, 1e-11),
)
ANALYZE_ETAS = ((), ("--eta", "0.01", "0.05"))
PAPER_ANALYZE_ETAS = ((), ("--eta", "1.0"))
# (file name, generator params, seed, sparsity level of the saved file)
UNDER_SPARSE_FILE = ("iht_under_sparse", {"m": 20, "n": 40, "s": 4, "residual": True}, 0, 6)

# (file name, kind, generator params, seed, solve step) of the diagonal-A files
DIAGONAL_FILES = (
    ("lcls_diagonal", "lcls", {"m": 20, "n": 20, "p": 5}, 0, "0.1"),
    ("sphere_diagonal", "sphere", {"m": 10, "n": 10, "gamma": -0.5}, 0, "0.1"),
)


def _write_dense_copy(path):
    """Write the problem file at ``path``, whose A is in the diagonal form, with
    A in the dense layout as ``<stem>_dense.json``; returns the new path."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    diagonal = doc["A"]["diagonal"]
    n = len(diagonal)
    data = [0.0] * (n * n)
    data[::n + 1] = diagonal
    doc["A"] = {"shape": [n, n], "data": data}
    dense_path = path[:-len(".json")] + "_dense.json"
    with open(dense_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return dense_path


def _record(outdir, name, call):
    """Run ``call`` with captured output; write its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except Exception:  # a crash is a result to compare, not a reason to stop
            traceback.print_exc()
            code = "uncaught"
    for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                         ("exit", f"{code}\n")):
        with open(os.path.join(outdir, f"{name}.{suffix}"), "w", encoding="utf-8") as fh:
            fh.write(text.replace(outdir, "OUTDIR"))


def _files(root):
    """Paths of every file under ``root``, relative to it."""
    return {
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root)
        for name in names
    }


def _json_stdout(path):
    """The parsed document of a JSON ``.stdout`` file, else None."""
    if not path.endswith(".stdout"):
        return None
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError:
            return None


def _walk(old, new, key, drift, where):
    """Compare two JSON values: record float changes per key in ``drift``,
    return the first place where the keys or a non-float value differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return f"{where}: keys {sorted(old)} != {sorted(new)}"
        pairs = [(old[k], new[k], k, f"{where}.{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{where}: {len(old)} items != {len(new)}"
        pairs = [(a, b, key, f"{where}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif type(old) is float and type(new) is float:
        change = 0.0 if old == new else abs(new - old) / max(abs(old), abs(new))
        drift[key] = max(drift.get(key, 0.0), change)
        return None
    elif type(old) is not type(new) or old != new:
        return f"{where}: {old!r} != {new!r}"
    else:
        return None
    for a, b, k, place in pairs:
        bad = _walk(a, b, k, drift, place)
        if bad is not None:
            return bad
    return None


def compare(old_dir, new_dir):
    """Report how the artifact set in ``new_dir`` differs from ``old_dir``."""
    old_files, new_files = _files(old_dir), _files(new_dir)
    failed = False
    for label, names in (("only in OLD", old_files - new_files),
                         ("only in NEW", new_files - old_files)):
        for name in sorted(names):
            print(f"{label}: {name}")
            failed = True
    drift = {}
    float_only = []
    for name in sorted(old_files & new_files):
        old_path, new_path = os.path.join(old_dir, name), os.path.join(new_dir, name)
        with open(old_path, "rb") as fa, open(new_path, "rb") as fb:
            old_bytes, new_bytes = fa.read(), fb.read()
        if old_bytes == new_bytes:
            continue
        old_doc, new_doc = _json_stdout(old_path), _json_stdout(new_path)
        if old_doc is not None and new_doc is not None:
            bad = _walk(old_doc, new_doc, "$", drift, "$")
            if bad is None:
                float_only.append(name)
                continue
            print(f"differs: {name}: {bad}")
        else:
            print(f"differs: {name}")
            try:
                lines = difflib.unified_diff(
                    old_bytes.decode("utf-8").splitlines(),
                    new_bytes.decode("utf-8").splitlines(), lineterm="", n=0)
                print("\n".join(f"    {line}" for line in list(lines)[2:]))
            except UnicodeDecodeError:
                pass
        failed = True
    print(f"{len(old_files & new_files)} files in both; floats moved in {len(float_only)} "
          f"JSON stdout files: {', '.join(float_only) or 'none'}")
    for key in sorted(drift):
        print(f"largest relative change of {key}: {drift[key]:.2e}")
    return 1 if failed else 0


def environment():
    """The digest header: what the bits depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS)
    return [f"# numpy {np.__version__}", f"# blas {blas.get('name')} {blas.get('version')}",
            f"# threads {threads}"]


def digest(root, header):
    """The digest text of the set under ``root``: the header lines, then one
    ``<sha256>  <path>`` line per file, sorted by path."""
    lines = list(header)
    for name in sorted(_files(root)):
        with open(os.path.join(root, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return "\n".join(lines) + "\n"


def _parse(text):
    """(header lines, {path: sha256}) of a digest text."""
    lines = text.splitlines()
    sums = dict(line.split("  ", 1)[::-1] for line in lines if not line.startswith("#"))
    return [line for line in lines if line.startswith("#")], sums


def check(recorded, header, build):
    """Compare the ``recorded`` digest text with the one ``build()`` returns;
    ``build`` is not called when the recorded header is not ``header``."""
    old_header, old = _parse(recorded)
    if old_header != list(header):
        print("the recorded environment differs from this one; no verdict")
        print("\n".join(f"    recorded {line}" for line in old_header))
        print("\n".join(f"    here     {line}" for line in header))
        return 3
    new = _parse(build())[1]
    changed = sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))
    for path in changed:
        state = "new" if path not in old else "gone" if path not in new else "changed"
        print(f"{state}: {path}")
    print(f"{len(changed)} of {len(old.keys() | new.keys())} paths changed")
    return 1 if changed else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # read once, when numpy loads BLAS below
    if argv[0] not in ("--digest", "--check"):
        write_set(os.path.abspath(argv[0]))
        return 0
    header = environment()

    def build():
        with tempfile.TemporaryDirectory() as outdir:
            write_set(outdir)
            return digest(outdir, header)

    if argv == ["--digest"]:
        text = build()
        with open(DIGEST, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{DIGEST}: {len(_parse(text)[1])} files")
        return 0
    with open(DIGEST, encoding="utf-8") as fh:
        return check(fh.read(), header, build)


def write_set(outdir):
    """Write the artifact set into ``outdir``."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    import numpy as np

    from pgdlab import applications, cli, empirics, problem_io
    from pgdlab.constraints import SparsityConstraint
    from pgdlab.engine import Problem

    os.makedirs(outdir, exist_ok=True)

    def run_cli(name, args):
        _record(outdir, name, lambda: cli.main(args))

    for label, kind, flags in EXPERIMENTS:
        for seed in EXPERIMENT_SEEDS:
            name = f"experiment_{label}_seed{seed}"
            run_cli(name, ["experiment", kind, *flags, "--seed", str(seed),
                           "--outdir", os.path.join(outdir, name)])
    name = "experiment_mcp_paper"
    run_cli(name, ["experiment", "mcp", *PAPER_MCP, "--outdir", os.path.join(outdir, name)])

    def bundle(kind, params, fractions, seed, target):
        empirics.run_experiment(kind, params, lambda report: [f * report.eta_opt for f in fractions],
                                seed, outdir=target)
        return 0

    for kind, params, fractions in BUNDLES:
        for seed in BUNDLE_SEEDS:
            name = f"bundle_{kind}_seed{seed}"
            target = os.path.join(outdir, name)
            _record(outdir, name, lambda: bundle(kind, params, fractions, seed, target))

    for seed in VERIFY_SEEDS:
        run_cli(f"verify_seed{seed}", ["verify", "--suite", "all", "--seed", str(seed)])

    for name, kind, params, seed, keep_x_star, move in ANALYZE_FILES:
        path = os.path.join(outdir, f"problem_{name}.json")
        problem, x_star = empirics.make_instance(kind, params, seed)
        if move:  # completion: b is the sampling mask times the observations
            b = problem.b + move * problem.diagonal
            problem = Problem(problem.diagonal, b, problem.constraint)
        problem_io.save_problem(path, problem, x_star=x_star if keep_x_star else None)
        copies = [(name, path)]
        if problem.diagonal is not None:
            copies.append((f"{name}_dense", _write_dense_copy(path)))
        for label, target in copies:
            for etas in ANALYZE_ETAS:
                suffix = "_etas" if etas else ""
                run_cli(f"analyze_{label}{suffix}", ["analyze", target, *etas])

    # No dense copy: its 2000 x 2000 A would take tens of MB.
    path = os.path.join(outdir, "problem_mcp_paper.json")
    problem, x_star = empirics.make_instance("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7)
    problem_io.save_problem(path, problem, x_star=x_star)
    for etas in PAPER_ANALYZE_ETAS:
        run_cli(f"analyze_mcp_paper{'_etas' if etas else ''}", ["analyze", path, *etas])

    name, params, seed, s = UNDER_SPARSE_FILE
    path = os.path.join(outdir, f"problem_{name}.json")
    problem, x_star = empirics.make_instance("iht", params, seed)
    problem = Problem(problem.A, problem.b, SparsityConstraint(s, problem.constraint.n))
    problem_io.save_problem(path, problem, x_star=x_star)
    for etas in ANALYZE_ETAS:
        run_cli(f"analyze_{name}{'_etas' if etas else ''}", ["analyze", path, *etas])

    for name, kind, params, seed, eta in DIAGONAL_FILES:
        path = os.path.join(outdir, f"problem_{name}.json")
        constraint = empirics.make_instance(kind, params, seed)[0].constraint
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.5, 2.0, constraint.n) * rng.choice([-1.0, 1.0], constraint.n)
        problem = Problem(np.diag(d), rng.standard_normal(constraint.n), constraint)
        x_star = applications.analyze_problem(problem).x_star if kind == "lcls" else None
        problem_io.save_problem(path, problem, x_star=x_star)
        for label, target in ((name, path), (f"{name}_dense", _write_dense_copy(path))):
            if kind == "lcls":
                run_cli(f"analyze_{label}", ["analyze", target])
            run_cli(f"solve_{label}", ["solve", target, "--eta", eta, "--max-iters", "2000",
                                       "--out", os.path.join(outdir, f"solve_{label}.csv")])


if __name__ == "__main__":
    sys.exit(main())
