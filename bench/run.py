"""seqlab benchmark: run one workload through ``seqlab.cli.main`` and report.

    python3 bench/run.py --workload scan-closed --seed 1 --seconds 20 --trace 0

Run from the root of a seqlab source tree; the package is imported from
``src/``.  One process runs the workload's commands in a closed loop, one
pass after another, for ``--seconds`` seconds after a warm-up pass, and
checks every output.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: fresh interpreter to ``seqlab.cli`` imported and the
  workload's config files parsed, the cost of every CLI call (median of
  several spawns);
* ``wall_cal``: one warm pass over the workload's commands, divided by the
  time of the fixed calibration chunk of ``calibrate.py`` run next to it
  (median over the passes).  The host's speed drifts by tens of percent
  over a minute, and the chunk drifts with it, so the ratio is steady
  where raw seconds are not.  The raw ``wall_s`` median, its min and
  max, the highest percentile with at least ten passes beyond it, and the
  calibration chunk's median are printed, not reported;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` wraps the public functions of every seqlab module (see
``tracer.py``), alternates untraced and traced passes, and reports per
traced pass, for the functions in ``LAYER_SPANS``, the ``calls`` and the
``self_frac`` (self time over the pass's wall time, so that a function
a workload never calls reads as a zero share, not as a constant time),
plus the bytes emitted, the traced ``trace.wall_s`` and the tracing
overhead against the untraced passes.  Self times in seconds are printed, and the first traced pass's
spans are written to ``.bench_work/spans-<workload>.tsv``.

Failed commands (non-zero exit or failed output check) count in
``failed``; ``ops_failed_frac`` is printed.  The last line of stdout is the
JSON result.  Exits 2 without a result when the source tree is missing.
"""

from __future__ import annotations

import os

# Fixed thread count for BLAS/OpenMP, set before numpy is imported here or
# in a spawned interpreter: the matrices are tiny, and one thread keeps the
# timings steady on a small shared machine.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REQUIRED_SPANS, WORKLOADS, read_output  # noqa: E402

SETUP_SPAWNS = 11
MIN_PASSES = 3
# Calibration time after each untraced pass, as a share of the pass's time.
CAL_SHARE = 0.25

# Functions whose calls and self time are reported per layer.
LAYER_SPANS = (
    "qcore.segment_unitary", "qcore.hermitian_propagator",
    "qcore.propagate_sequence", "qcore.build_hamiltonian",
    "ramsey.fringe_scan", "ramsey.rabi_scan",
    "ramsey.build_ramsey_sequence", "ramsey.ramsey_intensity",
    "pairwise.mixture_fringe_scan", "pairwise.propagate_pair_sequence",
    "dissipative.evolve_master", "dissipative.lindblad_rhs",
    "dissipative.DensityMatrix.validate",
    "photostats.sample_shots", "photostats.sample_coherent_shots",
    "photostats.estimate_g2", "photostats.fit_sinusoid",
    "photostats.readout_from_sequence",
    "io.csv_text", "io.json_text", "io.emit",
    "dsl.load_sequence", "config.load_config", "cli.main",
)

SETUP_CHILD = (
    "import sys, time\n"
    "import seqlab.cli\n"
    "from seqlab.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
    "print(time.monotonic())\n"
    "print(seqlab.cli.__file__)\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def measure_setup(config_paths: list[str], spawns: int) -> list[float]:
    """Seconds from spawning an interpreter to config parsed, per spawn.

    time.monotonic is one system-wide clock, so the child's reading can be
    compared with the parent's.  The first spawn warms the bytecode cache
    and is not counted.
    """
    env = child_env()
    argv = [sys.executable, "-c", SETUP_CHILD, *config_paths]
    times = []
    for k in range(spawns + 1):
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup interpreter failed:\n{proc.stderr}")
        stamp, where = proc.stdout.splitlines()
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"seqlab.cli imported from {where}, not from {SRC}")
        if k:
            times.append(float(stamp) - t0)
    return times


def run_command(cli, argv) -> tuple[int | None, str]:
    """Call seqlab.cli.main in-process; (exit code or None, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed run
            return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def run_pass(cli, plan) -> tuple[float, list[str]]:
    """Time one pass over the commands, then check them; (seconds, failures)."""
    codes = []
    t0 = time.perf_counter()
    for cmd in plan.commands:
        codes.append(run_command(cli, cmd.argv))
    wall = time.perf_counter() - t0

    failures, outputs = [], {}
    for cmd, (code, err) in zip(plan.commands, codes):
        if code == 0:
            try:
                outputs[cmd.name] = read_output(cmd.out)
            except (OSError, ValueError, IndexError) as exc:
                code, err = 1, f"unreadable output: {exc}"
        if code != 0:
            failures.append(f"{cmd.name}: exit {code}: {err.strip()[-300:]}")
    for cmd in plan.commands:
        if cmd.name in outputs:
            why = cmd.check(outputs)
            if why is not None:
                failures.append(f"{cmd.name}: check failed: {why}")
    for cmd in plan.commands:
        cmd.out.unlink(missing_ok=True)
    return wall, failures


def calibrate_for(seconds: float) -> float:
    """Mean time of calibration chunks run for about `seconds`, at least one."""
    times = [calibrate.chunk()]
    while sum(times) < seconds:
        times.append(calibrate.chunk())
    return statistics.fmean(times)


def loop(cli, plan, seconds: float):
    """Passes, each followed by calibration, for about `seconds`.

    A pass starts only if the median pass-and-calibration cycle so far
    still fits before the deadline, and at least MIN_PASSES run.  Returns
    the pass times, the calibration chunk time next to each pass (mean of
    the chunks just before and just after it) and the failures.
    """
    walls, cals, failures, cycles = [], [], [], []
    deadline = time.perf_counter() + seconds
    before = calibrate_for(0.0)
    while len(walls) < MIN_PASSES or time.perf_counter() + statistics.median(cycles) < deadline:
        t0 = time.perf_counter()
        wall, failed = run_pass(cli, plan)
        after = calibrate_for(CAL_SHARE * wall)
        walls.append(wall)
        cals.append(0.5 * (before + after))
        failures.append(failed)
        cycles.append(time.perf_counter() - t0)
        before = after
    return walls, cals, failures


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples above it: (p, value) or None."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # nearest rank, ceil(p n / 100)
    return p, sorted(samples)[rank - 1]


def src_metadata() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_py_files": len(files), "src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_metadata(args, plan) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "size": plan.size,
        "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "machine": platform.machine(),
        "git_commit": git_commit(), **src_metadata(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(cli, plan, args) -> tuple[dict, list]:
    setup = measure_setup([str(plan.work / n) for n in plan.configs], SETUP_SPAWNS)
    _, warm = run_pass(cli, plan)  # warm-up: imports, caches, lazy set-up
    calibrate.chunk()  # warm-up of the calibration kernel
    walls, cals, failures = loop(cli, plan, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls)
    wall_cal = statistics.median(w / c for w, c in zip(walls, cals))
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile (fewer than 11 passes)"
    print(f"  setup_s      {statistics.median(setup):.4f} s   median of {len(setup)} spawns")
    print(f"  wall_s       {wall:.4f} s   median of {len(walls)} passes "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); {tail_text}")
    print(f"  calibration  {statistics.median(cals):.4f} s   median chunk time next to a pass")
    print(f"  wall_cal     {wall_cal:.4f} x   median of pass time / chunk time")
    print(f"  peak_rss_mb  {peak_mb:.1f} MB")
    metrics = {
        "wall_cal": metric(wall_cal, "x"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return metrics, [warm, *failures]


def traced(cli, plan, args) -> tuple[dict, list]:
    """Alternate untraced and traced passes, so both see the same machine."""
    failures = [run_pass(cli, plan)[1]]  # warm-up
    tracer = Tracer()
    names = tracer.install()
    try:
        failures.append(run_pass(cli, plan)[1])  # warm-up of the wrappers
    finally:
        tracer.uninstall()
    tracer.discard_pass()
    base_walls, walls, cycles = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < 2 or time.perf_counter() + statistics.median(cycles) < deadline:
        t0 = time.perf_counter()
        wall, failed = run_pass(cli, plan)
        base_walls.append(wall)
        failures.append(failed)
        tracer.install()
        try:
            wall, failed = run_pass(cli, plan)
        finally:
            tracer.uninstall()
        tracer.end_pass()
        walls.append(wall)
        failures.append(failed)
        cycles.append(time.perf_counter() - t0)

    passes = tracer.passes
    missing = [s for s in REQUIRED_SPANS[plan.workload] if passes[0]["calls"][s] == 0]
    if missing:
        raise BenchError(f"traced run produced no span for {', '.join(missing)}")
    unstable = [
        n for n in set().union(*(p["calls"] for p in passes))
        if len({p["calls"][n] for p in passes}) != 1
    ]
    if unstable:
        raise BenchError(f"call counts differ between passes for {', '.join(sorted(unstable))}")

    base, wall = statistics.median(base_walls), statistics.median(walls)
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = metric(passes[0]["calls"][name], "count")
        metrics[f"{name}.self_frac"] = metric(
            statistics.median(p["self_s"][name] / w for p, w in zip(passes, walls)), "frac"
        )
    metrics["io.emit.bytes"] = metric(passes[0]["counters"]["io.emit.bytes"], "count")
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.overhead_frac"] = metric(wall / base - 1.0, "frac")

    n_spans = tracer.write_spans(WORK / f"spans-{plan.workload}.tsv")
    print(f"  untraced wall_s {base:.4f} s (median of {len(base_walls)}), "
          f"traced {wall:.4f} s (median of {len(walls)}): overhead {wall / base - 1.0:+.1%}")
    print(f"  {len(names)} functions wrapped, {n_spans} spans written to "
          f".bench_work/spans-{plan.workload}.tsv")
    print(f"  {'per traced pass':40s} {'calls':>8s} {'self_s':>11s} {'self_frac':>9s}")
    for name in LAYER_SPANS:
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            self_s = statistics.median(p["self_s"][name] for p in passes)
            frac = metrics[f"{name}.self_frac"]["value"]
            print(f"  {name:40s} {calls:8d} {self_s:11.6f} s {frac:9.4f}")
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "seqlab" / "cli.py").is_file():
        print(f"error: no seqlab source tree at {SRC}", file=sys.stderr)
        return 2
    wdir = WORK / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    plan = WORKLOADS[args.workload](args.seed, wdir, ROOT, args.tiny)
    for name, text in plan.configs.items():
        (wdir / name).write_text(text, encoding="utf-8")

    try:
        sys.path.insert(0, str(SRC))
        import seqlab.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"seqlab imported from {cli.__file__}, not from {SRC}")
        meta = run_metadata(args, plan)
        print(json.dumps({"meta": meta}, sort_keys=True))
        print(f"workload {args.workload}  seed {args.seed}  size {plan.size}")
        if args.trace:
            metrics, failures = traced(cli, plan, args)
        else:
            metrics, failures = untraced(cli, plan, args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(failures) * len(plan.commands)
    failed_cmds = sum(len({f.split(":", 1)[0] for f in fs}) for fs in failures)
    for reason, n in Counter(f for fs in failures for f in fs).items():
        print(f"FAILED ({n} passes) {reason}", file=sys.stderr)
    print(f"  ops_failed_frac {failed_cmds / attempted:.4f} ({failed_cmds} of {attempted} commands)")
    result = {
        "correct": failed_cmds == 0,
        "attempted": attempted,
        "failed": failed_cmds,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
