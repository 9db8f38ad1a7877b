"""The fusionrules benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload survey|doubles|check --seed N \\
        --seconds S --trace 0|1 [--size full|smoke]

Run it from anywhere; it imports the package from ``src/`` next to this
directory and exits with code 2, printing no result, when that is missing.

A run imports ``fusionrules``, sets up its inputs ``SETUP_REPEATS`` times (each
time building the seeded inputs and warming up on the smoke-size input), then
runs passes over the fixed input until ``--seconds`` have passed.  Every pass
is checked against ``reference.json``; any mismatch or exception is a failed
operation and makes the run exit 1.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the traced ones, the tracing overhead, and each layer's share of
self time; its spans are written to ``.perfbench/spans-<workload>-seed<N>.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before the other imports
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402 - standard library only; workloads imports the package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "first_rule_s": "s",
}

# name -> (unit, span name, field); "setup." names summarize the traced set-ups
PER_LAYER_SPANS = {
    "kernels.search_tensors.calls": ("count", "_kernels.search_tensors", "calls"),
    "kernels.search_tensors.busy_s": ("s", "_kernels.search_tensors", "busy_s"),
    "kernels.search_tensors.solutions": ("count", "_kernels.search_tensors", "solutions"),
    "kernels.search_tensors.solutions_per_call": ("count", "_kernels.search_tensors", None),
    "explorer._prepare.calls": ("count", "explorer._prepare", "calls"),
    "explorer._prepare.busy_s": ("s", "explorer._prepare", "busy_s"),
    "explorer._prepare.orbits": ("count", "explorer._prepare", "orbits"),
    "explorer._prepare.quads": ("count", "explorer._prepare", "quads"),
    "explorer.enumerate_rules.self_s": ("s", "explorer.enumerate_rules", "self_s"),
    "explorer.enumerate_rules.rules_out": ("count", "explorer.enumerate_rules", "items"),
    "generators.drinfeld_double.calls": ("count", "generators.drinfeld_double", "calls"),
    "generators.drinfeld_double.busy_s": ("s", "generators.drinfeld_double", "busy_s"),
    "generators.drinfeld_double.self_s": ("s", "generators.drinfeld_double", "self_s"),
    "generators.drinfeld_double.labels_out": ("count", "generators.drinfeld_double", "labels_out"),
    "groups.character_table.calls": ("count", "groups.character_table", "calls"),
    "groups.character_table.busy_s": ("s", "groups.character_table", "busy_s"),
    "core.validate.calls": ("count", "core.validate", "calls"),
    "core.validate.busy_s": ("s", "core.validate", "busy_s"),
    "core.validate.violations": ("count", "core.validate", "violations"),
    "core.assoc_dense.busy_s": ("s", "core.assoc_dense", "busy_s"),
    "core.assoc_blocked.busy_s": ("s", "core.assoc_blocked", "busy_s"),
    "kernels.assoc_defect.calls": ("count", "_kernels.assoc_defect", "calls"),
    "kernels.assoc_defect.busy_s": ("s", "_kernels.assoc_defect", "busy_s"),
    "kernels.assoc_defect.ops_computed": ("madd", "_kernels.assoc_defect", "ops_computed"),
    "kernels.assoc_defect.bytes_computed": ("B", "_kernels.assoc_defect", "bytes_computed"),
    "core.fp_dimensions.calls": ("count", "core.fp_dimensions", "calls"),
    "core.fp_dimensions.busy_s": ("s", "core.fp_dimensions", "busy_s"),
    "kernels.power_radius.calls": ("count", "_kernels.power_radius", "calls"),
    "kernels.power_radius.busy_s": ("s", "_kernels.power_radius", "busy_s"),
    "kernels.power_radius.iterations": ("count", "_kernels.power_radius", "iterations"),
    "acyclicity.find_cycle.calls": ("count", "acyclicity.find_cycle", "calls"),
    "acyclicity.find_cycle.busy_s": ("s", "acyclicity.find_cycle", "busy_s"),
    "acyclicity.check_theorem.busy_s": ("s", "acyclicity.check_theorem", "busy_s"),
    "nilpotency.central_series.calls": ("count", "nilpotency.central_series", "calls"),
    "nilpotency.central_series.busy_s": ("s", "nilpotency.central_series", "busy_s"),
    "nilpotency.central_series.chain_len": ("count", "nilpotency.central_series", "chain_len"),
    "io.parse_rule.calls": ("count", "io.parse_rule", "calls"),
    "io.parse_rule.busy_s": ("s", "io.parse_rule", "busy_s"),
    "io.parse_rule.bytes_in": ("B", "io.parse_rule", "bytes_in"),
    "io.dump_rule.calls": ("count", "io.dump_rule", "calls"),
    "io.dump_rule.busy_s": ("s", "io.dump_rule", "busy_s"),
    "io.dump_rule.bytes_out": ("B", "io.dump_rule", "bytes_out"),
    "cli.main.calls": ("count", "cli.main", "calls"),
    "cli.main.busy_s": ("s", "cli.main", "busy_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
    "setup.groups.builtin_group.busy_s": ("s", "groups.builtin_group", "busy_s"),
    "setup.core.product.busy_s": ("s", "core.product", "busy_s"),
}


# every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in PER_LAYER_SPANS.items()},
    **{f"share.{layer.lstrip('_')}": "%" for layer in spans.LAYERS},
    "share.unattributed": "%",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_pass": "count",
}


class PackageMissing(Exception):
    pass


def import_package():
    """Import fusionrules from ``src/`` beside this directory, and only from there."""
    src = ROOT / "src"
    if not (src / "fusionrules" / "__init__.py").is_file():
        raise PackageMissing(f"no fusionrules package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import fusionrules

    if Path(fusionrules.__file__).resolve().parent != (src / "fusionrules").resolve():
        raise PackageMissing(f"imported fusionrules from {fusionrules.__file__}, not {src}")
    return fusionrules


def git_sha() -> str:
    """HEAD of the checkout if it is a git repository (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports (None if no OpenBLAS is loaded)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    return int(get())
    return None


def run_record(fr, args, inputs_sha256: str) -> dict:
    import numpy

    using_numba = bool(fr._kernels.USING_NUMBA)
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": "numba" if using_numba else "fallback",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_sha256": inputs_sha256,
    }


def set_up(workloads, args, workdir: Path, recorder=None):
    """Build the inputs and warm up ``SETUP_REPEATS`` times; median seconds."""
    times = []
    for k in range(SETUP_REPEATS):
        if recorder is not None:
            recorder.trace = f"setup-{k}"
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, workdir)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def measure(workload, seconds: float, modes: list[str], recorder=None):
    """Run passes, cycling through ``modes``, until ``seconds`` have passed.

    A pass is started only if it should end within half a pass of the limit,
    and every mode runs at least once.
    """
    passes = {mode: [] for mode in modes}
    t0 = time.perf_counter()
    n = 0
    while True:
        mode = modes[n % len(modes)]
        if mode == "traced":
            recorder.trace = f"pass-{n}"
            with recorder.installed():
                result = workload.run_pass()
        else:
            result = workload.run_pass()
        passes[mode].append((f"pass-{n}", result))
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= len(modes) and elapsed + result.wall_s / 2 >= seconds:
            return passes


def verify(workloads, reference: dict, passes) -> tuple[int, int]:
    """Compare every pass with the reference; returns (attempted, failed)."""
    attempted = failed = 0
    for runs in passes.values():
        for label, result in runs:
            observed = workloads.observations(result)
            bad = workloads.failures(observed, reference)
            attempted += len(reference)
            failed += len(bad)
            for op in bad:
                print(f"FAIL {label} {op}: observed {json.dumps(observed.get(op))}",
                      file=sys.stderr)
    return attempted, failed


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    runs = [result for _, result in passes["untraced"]]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": setup_s,
        "peak_rss_mib": peak_kib / 1024,
        "first_rule_s": statistics.median(r.first_rule_s for r in runs),
    }


def per_layer(recorder, passes) -> dict[str, float]:
    per_pass = []
    for label, result in passes["traced"]:
        trace = recorder.trace_spans(label)
        summary = spans.summarize(trace)
        values = {}
        for name, (_, span_name, field) in PER_LAYER_SPANS.items():
            if not name.startswith("setup.") and field is not None:
                values[name] = summary.get(span_name, {}).get(field, 0)
        calls = values["kernels.search_tensors.calls"]
        values["kernels.search_tensors.solutions_per_call"] = (
            values["kernels.search_tensors.solutions"] / calls if calls else 0
        )
        own = spans.layer_self(trace)
        for layer, seconds in own.items():
            values[f"share.{layer.lstrip('_')}"] = 100 * seconds / result.wall_s
        values["share.unattributed"] = 100 * (result.wall_s - sum(own.values())) / result.wall_s
        values["trace.traced_wall_s"] = result.wall_s
        values["trace.spans_per_pass"] = len(trace)
        per_pass.append(values)
    metrics = spans.median_of(per_pass)

    setups = [spans.summarize(recorder.trace_spans(f"setup-{k}")) for k in range(SETUP_REPEATS)]
    for name, (_, span_name, field) in PER_LAYER_SPANS.items():
        if name.startswith("setup."):
            metrics[name] = statistics.median(s.get(span_name, {}).get(field, 0) for s in setups)

    untraced = statistics.median(r.wall_s for _, r in passes["untraced"])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - untraced
    return metrics


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:>14.6g}  {unit}")


def print_shares(args, metrics: dict) -> None:
    print(f"layer self-time share of a traced {args.workload} pass "
          f"(untraced wall_s {metrics['trace.untraced_wall_s']:.4f} s, "
          f"traced {metrics['trace.traced_wall_s']:.4f} s, "
          f"overhead {metrics['trace.overhead_s']:+.4f} s)")
    for layer in [*(l.lstrip("_") for l in spans.LAYERS), "unattributed"]:
        share = metrics[f"share.{layer}"]
        seconds = share / 100 * metrics["trace.traced_wall_s"]
        print(f"  {layer:<12} {share:6.2f} %  {seconds:9.4f} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["survey", "doubles", "check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
    # thread per core, on a 2-core machine, `doubles` ran 15% slower and used
    # 2.2x the CPU (threads spinning in small complex matrix-vector products),
    # and its wall and CPU time spread 27% and 20% across five seeds, against
    # 3% with one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        fr = import_package()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    import workloads

    reference = json.loads((HERE / "reference.json").read_text())[args.size][args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    recorder = spans.Recorder() if args.trace else None
    try:
        if recorder is not None:
            with recorder.installed():
                workload, setup_s = set_up(workloads, args, workdir, recorder)
            modes = ["untraced", "traced"]
        else:
            workload, setup_s = set_up(workloads, args, workdir)
            modes = ["untraced"]
        record = run_record(fr, args, workload.inputs_sha256)
        passes = measure(workload, args.seconds, modes, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = verify(workloads, reference, passes)
    record["passes"] = {mode: len(runs) for mode, runs in passes.items()}
    print("run record: " + json.dumps(record))
    if recorder is not None:
        for name in recorder.missing:
            print(f"warning: fusionrules has no {name}; its metrics read 0", file=sys.stderr)
        metrics = per_layer(recorder, passes)
        units = PER_LAYER
        print_shares(args, metrics)
        print_table("per-layer metrics (median over traced passes)", metrics, units)
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json", record)
    else:
        metrics = end_to_end(passes, import_s + setup_s)
        units = END_TO_END
        print_table("end-to-end metrics (median over passes)", metrics, units)
    print(f"  error_rate  {failed / attempted:.6g}  ratio")
    print(f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
