"""spinplanar benchmark: one workload, one process, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run imports spinplanar from the
checkout's src/, generates the workload's input files from the seed under
.bench_work/, and then runs the workload's task list back to back, each task
in-process through spinplanar.cli.main with --format json, for about S
seconds.  Every answer is checked against a closed form (see workloads.py).

The host is shared, and its speed changes by up to 2x from one second to the
next.  So every set-up and every untraced task is timed with a host-speed
sampler (hostspeed.py) that runs a small fixed probe inside it every 0.1 s,
and the end-to-end times are rescaled to a host on which the probe takes
hostspeed.REF_S: a task by the probes run inside it, a set-up (shorter than
the period) by all probes of its round (five set-ups and one pass).  The
probes' own time is not counted.  The raw times are printed and recorded too.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
    wall_s       median rescaled seconds of one pass over the task list,
                 over the passes whose answers were all right
    setup_s      median rescaled seconds of one set-up: a fresh import of
                 spinplanar (numpy and scipy stay loaded), input generation
                 and file writing.  Every pass starts with five set-ups of
                 its own, so the set-ups are spread over the run like the
                 passes.
    peak_rss_mb  peak resident memory of the process
    pass_frac    tasks answered right / tasks attempted (1 - fail_frac)
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced pass with the median wall time (see WRAPS); the layer
self times add up to that pass's raw wall time, trace.wall_s, and
trace.overhead_s is the traced minus the untraced raw median.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it record the seed and the
environment.  A result file with every pass and all spans is written to
.bench_work/.  The run exits with code 2 without a result when the checkout
holds no src/spinplanar.
"""

import os

# Pin the BLAS pool before numpy loads it: one thread, so runs on a shared
# host do not depend on how many cores happen to be free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loaded before set-up is timed)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS_PER_ROUND = 5  # a set-up is short and its time varies widely; more samples steady the median


# ---------------------------------------------------------------------------
# trace targets: the public functions of each layer, where callers reach them


def _count(metric):
    def record(tracer, args, kwargs, result):
        tracer.add(metric, 1)
    return record


def _operator(tracer, args, kwargs, result):
    tracer.add("assembly.cols", result.matrix.shape[1])
    tracer.add("assembly.op_bytes", result.matrix.nbytes)


def _factor(tracer, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    m, n = max(a.shape), min(a.shape)
    tracer.add("factor.calls", 1)
    # computed, not measured: a complex SVD with right singular vectors,
    # 4 m n^2 + 8 n^3 complex operations (Golub-Van Loan) at 4 real flops each
    tracer.add("factor.flops", 4 * (4 * m * n * n + 8 * n ** 3))
    tracer.add("factor.in_bytes", a.nbytes)
    if math.isfinite(result.gap):
        tracer.low("factor.min_gap", result.gap)


def _closure(tracer, args, kwargs, result):
    tracer.add("closure.products", sum(r.dim ** 2 for r in args[0] if not r.minus))
    tracer.high("closure.max_residual", max(result.residuals.values()))


def _staircase(tracer, args, kwargs, result):
    tracer.add("staircase.top_nnz", result.elements[-1].nnz)


W = spans.Wrap
SUB, CLI = "spinplanar.subfactor", "spinplanar.cli"
WRAPS = [
    W("spinplanar.qit", "is_biunitary", "cert"),
    W(SUB, "build_staircase", "staircase", ("staircase.top_nnz",), _staircase),
    W(SUB, "membership_operator", "assembly", ("assembly.cols", "assembly.op_bytes"), _operator),
    W(SUB, "sigma", None, ("assembly.sigma_calls",), _count("assembly.sigma_calls")),
    W(SUB, "mult", None, ("core.mult_calls",), _count("core.mult_calls")),
    W(SUB, "star", None, ("core.star_calls",), _count("core.star_calls")),
    W("spinplanar.numerics", "kernel_basis", "factor",
      ("factor.calls", "factor.flops", "factor.in_bytes", "factor.min_gap"), _factor),
    W(SUB, "devectorize", "post.devec", ("post.vectors",), _count("post.vectors")),
    W(SUB, "norm", "post.norm"),
    W(SUB, "rotate_pow", "post.rotate"),
    W(SUB, "verify_planar_closure", "closure",
      ("closure.products", "closure.max_residual"), _closure),
    W(SUB, "group_oracle", "oracle"),
    W(SUB, "GroupOracle.x", "oracle"),
    W(SUB, "GroupOracle.orbit_sums", "oracle"),
    W(SUB, "_projection_residual", "oracle"),
    W(CLI, "coeff_distance", "oracle"),
    W(CLI, "mult", "oracle", ("core.mult_calls",), _count("core.mult_calls")),
]

# span name -> self-time metric; "cli" is one task, "pass" one pass
LAYER_METRIC = {
    "pass": "bench.self_s", "cli": "cli.self_s", "cert": "cert.s",
    "staircase": "staircase.s", "assembly": "assembly.s", "factor": "factor.s",
    "post.devec": "post.devec_s", "post.norm": "post.norm_s",
    "post.rotate": "post.rotate_s", "closure": "closure.s", "oracle": "oracle.s",
}


# ---------------------------------------------------------------------------
# set-up


def import_program():
    """A fresh import of spinplanar from the checkout; returns spinplanar.cli."""
    for name in [m for m in sys.modules if m == "spinplanar" or m.startswith("spinplanar.")]:
        del sys.modules[name]
    cli = importlib.import_module("spinplanar.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spinplanar was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, work_dir: Path):
    """Import, generate the inputs and write them; returns (cli, [(task, argv)])."""
    cli = import_program()
    jobs = []
    for i, task in enumerate(workloads.make_tasks(workload, seed)):
        path = work_dir / f"task{i}.json"
        path.write_text(json.dumps(task.input))
        jobs.append((task, [task.command, "--input", str(path), *task.options,
                            "--format", "json"]))
    return cli, jobs


def environment() -> dict:
    """Cores, library versions, and the thread count each OpenBLAS reports.

    numpy and scipy wheels each bundle their own OpenBLAS; a version or
    thread count that cannot be read is recorded as None.
    """
    def blas(module, lib_dir, symbol):
        info = {"version": None, "threads": None}
        with contextlib.suppress(AttributeError, KeyError, TypeError):
            config = module.show_config(mode="dicts")
            info["version"] = config["Build Dependencies"]["blas"]["version"]
        libs = sorted((Path(module.__file__).parent.parent / lib_dir).glob("libscipy_openblas*"))
        with contextlib.suppress(OSError, AttributeError, IndexError):
            info["threads"] = getattr(ctypes.CDLL(str(libs[0])), symbol)()
        return info

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np, "numpy.libs", "scipy_openblas_get_num_threads64_"),
        "openblas_scipy": blas(scipy, "scipy.libs", "scipy_openblas_get_num_threads"),
        "blas_threads_pinned": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# the loop


def clear_caches() -> None:
    """Empty every functools cache of the program: each CLI invocation starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "spinplanar" or name.startswith("spinplanar."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_task(cli, task, argv, tracer) -> list[str]:
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli") if tracer else contextlib.nullcontext():
                code = cli.main(list(argv))
        payload = json.loads(out.getvalue()) if code == 0 else None
    except Exception:  # a crash is a failed task; keep running the workload
        return [f"exception: {traceback.format_exc()}"]
    problems = workloads.check_answer(task, code, payload)
    if problems and err.getvalue():
        problems.append(f"stderr: {err.getvalue().strip()}")
    return problems


def run_pass(cli, jobs, sampler, tracer=None) -> dict:
    """One pass over the tasks, untraced (timed by sampler) or traced."""
    gc.collect()
    failures, sections = [], []
    with tracer.span("pass") if tracer else contextlib.nullcontext():
        for task, argv in jobs:
            with sampler.timed(sections) if tracer is None else contextlib.nullcontext():
                problems = run_task(cli, task, argv, tracer)
            if problems:
                failures.append(f"{task.label}: {'; '.join(problems)}")
    if tracer:
        return {"wall_s": pass_wall(tracer), "tasks": len(jobs), "failures": failures,
                "traced": True}
    everywhere = [t for s in sections for t in s.samples]  # for a task no probe ran in
    return {"wall_s": sum(s.seconds for s in sections),
            "wall_scaled_s": sum(hostspeed.rescale(s.seconds, s.samples or everywhere)
                                 for s in sections),
            "task_s": [s.seconds for s in sections], "probes": [s.samples for s in sections],
            "tasks": len(jobs), "failures": failures, "traced": False}


def pass_wall(tracer: spans.Tracer) -> float:
    root = tracer.spans[0]
    return root.end - root.start


def layer_metrics(tracer: spans.Tracer, names: list[str]) -> dict:
    """Per-layer values of one traced pass; None marks an absent metric."""
    values = dict.fromkeys(names, 0)
    for layer, t in spans.self_times(tracer.spans).items():
        values[LAYER_METRIC[layer]] = t
    values.update(tracer.counts)
    values["factor.min_gap"] = tracer.counts.get("factor.min_gap")
    values["trace.wall_s"] = pass_wall(tracer)
    for m in tracer.absent():
        values[LAYER_METRIC.get(m, m)] = None
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    if not (SRC / "spinplanar" / "__init__.py").is_file():
        print(f"no spinplanar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = WORK / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)

    setups, setups_scaled, setup_probes, passes, tracers, rounds = [], [], [], [], [], []
    sampler = hostspeed.Sampler()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        t0 = time.perf_counter()
        round_setups = []
        for _ in range(SETUPS_PER_ROUND):
            with sampler.timed(round_setups):
                cli, jobs = set_up(args.workload, args.seed, work_dir)
        passes.append(run_pass(cli, jobs, sampler))
        round_probes = [t for s in round_setups for t in s.samples]
        round_probes += [t for samples in passes[-1]["probes"] for t in samples]
        setups += [s.seconds for s in round_setups]
        setups_scaled += [hostspeed.rescale(s.seconds, round_probes) for s in round_setups]
        setup_probes.append([s.samples for s in round_setups])
        if args.trace:
            tracer = spans.Tracer(top="cli")
            with tracer.installed(WRAPS):
                passes.append(run_pass(cli, jobs, sampler, tracer))
            tracers.append(tracer)
        rounds.append(time.perf_counter() - t0)

    attempted = sum(p["tasks"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = list(failures)
    clean = [p for p in passes if not p["failures"] and not p["traced"]]
    # a wrong answer is never fast
    untraced = clean or [max((p for p in passes if not p["traced"]), key=lambda p: p["wall_s"])]
    raw = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
           "setup_s": statistics.median(setups)}
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(p["wall_scaled_s"] for p in untraced),
            "setup_s": statistics.median(setups_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": (attempted - len(failures)) / attempted,
        }
    else:
        chosen = sorted(tracers, key=pass_wall)[(len(tracers) - 1) // 2]
        values = layer_metrics(chosen, list(units))
        traced = [p["wall_s"] for p in passes if p["traced"]]
        values["trace.overhead_s"] = statistics.median(traced) - raw["wall_s"]
        attributed = sum(values[m] for m in LAYER_METRIC.values() if values[m] is not None)
        if abs(attributed - values["trace.wall_s"]) > 1e-6:
            problems.append(f"self times add up to {attributed}, not to the pass wall "
                            f"{values['trace.wall_s']}")
        if chosen.missing:
            print(f"missing wrap targets: {', '.join(chosen.missing)}")
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json "
                           f"{sorted(units)}")

    env = environment()
    failed = len(failures)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s": setups,
              "setup_scaled_s": setups_scaled, "setup_probes": setup_probes,
              "probe_ref_s": hostspeed.REF_S,
              "passes": passes,
              "problems": problems, "result": result,
              "spans": [[[s.name, s.start, s.end, s.parent] for s in t.spans] for t in tracers]}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for task, argv in jobs:
        print(f"task: {task.label}: spinplanar {' '.join(argv)}")
    print(f"samples: {len(setups)} set-ups, {len(clean)} clean untraced passes, "
          f"{len(tracers)} traced passes")
    probes = [t for p in untraced for samples in p["probes"] for t in samples]
    print(f"raw medians: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s; "
          f"{len(probes)} host-speed probes in the passes, median {statistics.median(probes):.6g} s "
          f"(reference {hostspeed.REF_S} s)")
    for problem in problems:
        print(f"FAILED {problem}")
    for m in units:
        shown = "absent" if values[m] is None else f"{values[m]:.6g}"
        print(f"  {m:22s} {shown} {units[m]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
