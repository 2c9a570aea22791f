#!/usr/bin/env python3
"""The coopattr benchmark: closed-loop workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload trend --seed 0 --seconds 30 --trace 0

One client runs one op after another in this process, with no added threads.
An op is one ``run_experiment`` call (``trend``, ``wide_pool``) or one
noise level of ``run_noise_study`` (``noise_sweep``). Ops come in cycles that
share one input: a world for the loop workloads, a calibrated sweep for the
noise study. The benchmark runs whole cycles, as many as bring the measured
time closest to ``--seconds``, and at least one; the inputs of one cycle are
made before its ops and are not timed.

``--seed`` picks which inputs the cycles use, from a fixed list whose
reference digests are stored in ``reference.json``: cycle ``c`` uses input
seed ``(seed + c) % len(list)``. Every op's output is hashed (SHA-256 of the
``records_to_csv`` text, or of the noise level's result row) and compared
with its reference; an op that raises or differs counts as failed.

``setup_s`` is the median of nine set-ups (import, config load, and world
generation or noise calibration), each in a fresh interpreter started with
``--setup-probe``, so that the import is timed every time. The set-ups are
spread over the run, between ops, so that their median sees the same drift
in the host's speed as the ops do; their time is not measured time.

With ``--trace 0`` the last line is the end-to-end result; with ``--trace 1``
each op runs untraced and then traced, the traced outputs must hash the same,
and the last line holds the per-layer figures (see ``tracer.py``). Earlier
lines give the machine record and every metric by name, unit and sample
count. ``--record`` recomputes ``reference.json`` instead of measuring.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_out"

#: BLAS threads for the whole run; at most ``nproc``, and 1 keeps a
#: single-client closed loop on one core.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups timed per run, each in a fresh interpreter so that it includes
#: the import; ``setup_s`` reports their median.
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    #: Input seeds a run picks its cycles from (worlds, or noise-study seeds).
    input_seeds: int
    #: Learner variants run on each world; empty for the noise study.
    variants: tuple[str, ...] = ()
    iterations: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Ten worlds: the ROADMAP reference batch.
        Workload("trend", 10, ("SSL_IND", "MULTIVIEW_IND", "COOPERATIVE_UNIFORM"), 40),
        Workload("wide_pool", 20, ("COOPERATIVE_WEIGHTED",), 8),
        Workload("noise_sweep", 10),
    )
}


def _pin_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # The agent thread pool measured slower; the benchmark runs without it.
    os.environ.pop("COOPATTR_THREADS", None)


def _import_program():
    """Import coopattr from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "coopattr" / "__init__.py").is_file():
        raise ImportError(f"no coopattr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coopattr

    if Path(coopattr.__file__).resolve().parent != SRC / "coopattr":
        raise ImportError(f"imported coopattr from {coopattr.__file__}, not {SRC}")
    return coopattr


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "simd": simd,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "coopattr_threads": os.environ.get("COOPATTR_THREADS", "unset"),
        "seed": seed,
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def noise_row(r) -> str:
    """One ``noise_results.csv`` row, as ``coopattr sweep-noise`` writes it."""
    return (
        f"{r.good_noise_std!r},{r.baseline_accuracy!r},{r.cooperative_accuracy!r},"
        f"{r.margin!r},{r.good_attribute_accuracy!r},{r.bad_attribute_accuracy!r}"
    )


@dataclass
class Op:
    key: str  # reference key: "<input seed>/<variant or level>"
    label: str
    run: object  # zero-argument callable, the timed call
    check: object  # output -> (digest, units of work, quality figure)


class Bench:
    """One workload bound to the imported library and its config file."""

    def __init__(self, lib, workload: Workload, tiny: bool):
        from coopattr import config as config_module

        self.lib = lib
        self.cfgmod = config_module
        self.workload = workload
        self.config_path = HERE / "configs" / ("tiny" if tiny else "") / f"{workload.name}.cfg"
        self.input_seeds = 1 if tiny else workload.input_seeds
        self.iterations = min(workload.iterations, 2) if tiny else workload.iterations
        self.ref_key = f"tiny/{workload.name}" if tiny else workload.name

    def input_seed(self, seed: int, cycle: int) -> int:
        return (seed + cycle) % self.input_seeds

    def setup(self, input_seed: int):
        """Config load plus world generation or noise calibration for one cycle."""
        cfg = self.cfgmod.load_experiment_config(self.config_path)
        if self.workload.variants:
            world_cfg = self.cfgmod.world_config(cfg, input_seed)
            return cfg, self.lib.synthetic.generate_world(world_cfg)
        cfg = replace(cfg, noise_rng_seed=input_seed)
        return cfg, self.cfgmod.noise_sweep_config(cfg)

    def ops(self, input_seed: int, cfg, made) -> list[Op]:
        harness = self.lib.harness
        if self.workload.variants:
            loop = self.cfgmod.loop_config(cfg)

            def check(records):
                finals = [agent.accuracy for agent in records[-1].agents]
                units = len(records) * len(records[-1].agents)
                return _digest(harness.records_to_csv(records)), units, statistics.fmean(finals)

            return [
                Op(
                    f"{input_seed}/{name}",
                    f"{name} world={input_seed}",
                    lambda v=harness.LearnerVariant[name]: harness.run_experiment(
                        v, made, self.iterations, loop
                    ),
                    check,
                )
                for name in self.workload.variants
            ]

        def check(results):
            (result,) = results
            return _digest(noise_row(result)), made.n_seeds, result.margin

        return [
            Op(
                f"{input_seed}/level{i}",
                f"noise_seed={input_seed} level={i}",
                lambda lv=level: harness.run_noise_study(
                    harness.NoiseSweepConfig(study=made.study, levels=(lv,), n_seeds=made.n_seeds)
                ),
                check,
            )
            for i, level in enumerate(made.levels)
        ]

    def distractor_ids(self, made) -> frozenset[int]:
        if not self.workload.variants:
            return frozenset()
        return frozenset(
            ex_id
            for domain in made.domains
            for ex_id, ex in domain.examples.items()
            if ex.true_category == self.lib.DISTRACTOR
        )


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile. With 20 samples or fewer no percentile above the median has
    ten beyond it, so the maximum (p100) stands in."""
    xs = sorted(values)
    if len(xs) <= 20:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


@dataclass
class Tally:
    """What the measured loop saw."""

    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    op_s: list = field(default_factory=list)  # untraced op wall times
    traced_s: list = field(default_factory=list)  # traced wall times
    paired_s: float = 0.0  # untraced time of the ops that were also traced
    units: int = 0
    figures: dict = field(default_factory=dict)  # variant or level -> quality figures


def run_ops(bench: Bench, seed: int, seconds: float, tracer, probes) -> Tally:
    """Whole cycles of ops, as many as bring the measured time closest to
    ``seconds``, and at least one.

    With a tracer each op runs untraced, then traced; both outputs are checked.
    With set-up probes, those due are taken before each op and the rest after
    the last; their time is left out of the measured time.
    """
    with open(REFERENCE) as handle:
        reference = json.load(handle).get(bench.ref_key, {})
    tally = Tally()
    begin = time.perf_counter()

    def measured() -> float:
        return time.perf_counter() - begin - (probes.spent if probes else 0.0)

    def before_op() -> None:
        if probes:
            probes.catch_up(measured() / seconds)

    while True:
        run_cycle(bench, bench.input_seed(seed, tally.cycles), reference, tally, tracer,
                  before_op)
        tally.cycles += 1
        spent = measured()
        if spent + 0.5 * spent / tally.cycles > seconds:
            break
    if tracer:
        tracer.restore()
    if probes:
        probes.catch_up(1.0)
    print(f"ops {len(tally.op_s)} in {tally.cycles} cycles, {spent:.3f} s measured")
    return tally


def run_cycle(bench: Bench, input_seed: int, reference: dict, tally: Tally, tracer,
              before_op) -> None:
    """Make one cycle's input, then run and check its ops. The input is
    dropped on return, so one cycle's input is in memory at a time."""
    cfg, made = bench.setup(input_seed)
    if tracer:
        tracer.distractors = bench.distractor_ids(made)
    for op in bench.ops(input_seed, cfg, made):
        before_op()
        untraced = None
        for traced in (False, True) if tracer else (False,):
            tally.attempted += 1
            if tracer:
                (tracer.install if traced else tracer.restore)()
            try:
                start = time.perf_counter()
                if traced:
                    with tracer.op(tally.attempted):
                        out = op.run()
                else:
                    out = op.run()
                elapsed = time.perf_counter() - start
                digest, units, figure = op.check(out)
            except Exception as exc:  # a failing op is counted, not fatal
                tally.failed += 1
                print(f"op {op.label}: FAILED {type(exc).__name__}: {exc}")
                traceback.print_exc()
                continue
            ok = reference.get(op.key) == digest
            tally.failed += not ok
            mode = "traced" if traced else "untraced"
            print(f"op {op.label} {mode} {elapsed:.4f} s digest {'ok' if ok else 'MISMATCH'}")
            if traced:
                tally.traced_s.append(elapsed)
                tally.paired_s += untraced or 0.0
                continue
            untraced = elapsed
            tally.op_s.append(elapsed)
            tally.units += units
            tally.figures.setdefault(op.key.split("/", 1)[1], []).append(figure)


class SetupProbes:
    """Seconds of import, config load and the first cycle's input, each timed
    by a fresh ``--setup-probe`` interpreter, spread over the run."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.command = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                        "--setup-probe"] + (["--tiny"] if tiny else [])
        self.times: list[float] = []
        self.spent = 0.0  # wall time spent probing

    def catch_up(self, progress: float) -> None:
        """Take the probes due at ``progress`` (0 to 1) through the run: one
        at the start, the rest evenly up to the end."""
        due = 1 + (SETUP_REPEATS - 1) * min(progress, 1.0)
        while len(self.times) < due:
            start = time.perf_counter()
            out = subprocess.run(self.command, capture_output=True, text=True, check=True,
                                 timeout=120).stdout
            self.times.append(float(out.split()[-1]))
            self.spent += time.perf_counter() - start


def report_end_to_end(bench: Bench, tally: Tally, setup_times: list) -> dict:
    ops = tally.op_s
    n = len(ops)
    setup_s = statistics.median(setup_times)
    p50 = statistics.median(ops)
    tail_s, tail_pct = tail(ops)
    work_per_s = tally.units / sum(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop = bool(bench.workload.variants)
    _report("setup_s", setup_s, "s", f"median of {len(setup_times)} set-ups, "
            f"{min(setup_times):.4f} to {max(setup_times):.4f} s")
    _report("op_s.p50", p50, "s", f"n={n} ops")
    _report("op_s.tail", tail_s, "s", f"p{tail_pct:.4g}, n={n} ops")
    unit_name = "iters_per_s" if loop else "trials_per_s"
    _report("work_per_s", work_per_s, "1/s", f"= {unit_name}")
    _report(unit_name, work_per_s, "1/s", f"{tally.units} "
            f"{'agent-iterations' if loop else '(level, seed) trials'} in {sum(ops):.3f} s of ops")
    _report("peak_rss_mb", peak_rss_mb, "MB")
    figures = tally.figures
    if loop:
        everything = [f for values in figures.values() for f in values]
        _report("final_accuracy", statistics.fmean(everything), "fraction",
                f"mean final class-average accuracy over {n} ops and their agents")
        coop, ssl = figures.get("COOPERATIVE_UNIFORM"), figures.get("SSL_IND")
        if coop and ssl:
            _report("coop_margin", statistics.fmean(coop) - statistics.fmean(ssl), "fraction",
                    f"COOPERATIVE_UNIFORM minus SSL_IND final accuracy over {len(coop)} worlds")
    else:
        margins = [f for values in figures.values() for f in values]
        _report("coop_margin", statistics.fmean(margins), "fraction",
                f"cooperative minus baseline accuracy, mean over {n} levels")
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_layers(bench: Bench, tally: Tally, tracer, seed: int) -> tuple[dict, bool]:
    """Per-layer metrics, and whether their per-op self times add up to the
    traced op time. A traced span that no ``s/op`` metric counts (a layer
    called inside an op that is only reported per call, say) breaks the sum."""
    from coopattr.linear import TrainConfig
    from tracer import LAYER_METRICS, layer_metrics

    values = layer_metrics(tracer, TrainConfig())
    traced = tracer.op_seconds()
    op_s = sum(traced) / len(traced)
    accounted = sum(values[name] for name, unit, _ in LAYER_METRICS if unit == "s/op")
    # Within rounding: self times are differences of absolute clock readings.
    adds_up = math.isclose(accounted, op_s, rel_tol=1e-6)
    print(f"self-time check: the s/op layer metrics sum to {accounted:.9f} s/op, traced ops "
          f"took {op_s:.9f} s/op ({len(traced)} ops): {'ok' if adds_up else 'MISMATCH'}")
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        note = ""
        if name == "transfer.yield":
            note = f"base {values['transfer.candidates']:.6g} candidates/op"
        _report(name, values[name], unit, note)
        metrics[name] = (values[name], unit)
    # Figures of the tracer itself, not of a layer: printed, not in the result.
    _report("trace.op_s", op_s, "s/op", "traced op wall time")
    overhead = sum(traced) / tally.paired_s - 1.0 if tally.paired_s else math.nan
    _report("trace.overhead", overhead, "ratio",
            f"traced over untraced time of the same {len(traced)} ops, minus 1")
    path = TRACE_DIR / f"trace-{bench.ref_key.replace('/', '-')}-seed{seed}.json"
    tracer.write(path, {"workload": bench.ref_key, "seed": seed})
    print(f"wrote {len(tracer.spans)} spans to {path}")
    return metrics, adds_up


def measure(bench: Bench, seed: int, seconds: float, traced: bool, tiny: bool) -> None:
    tracer = probes = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probes = SetupProbes(bench.workload.name, seed, tiny)
    tally = run_ops(bench, seed, seconds, tracer, probes)
    metrics = {}
    adds_up = True
    if tally.op_s and (tally.traced_s or not traced):
        if traced:
            metrics, adds_up = report_layers(bench, tally, tracer, seed)
        else:
            metrics = report_end_to_end(bench, tally, probes.times)
    correct = tally.failed == 0 and bool(metrics) and adds_up
    print(_result(correct, tally.attempted, tally.failed, metrics))


def record(bench: Bench) -> dict[str, str]:
    digests = {}
    for input_seed in range(bench.input_seeds):
        cfg, made = bench.setup(input_seed)
        for op in bench.ops(input_seed, cfg, made):
            digests[op.key] = op.check(op.run())[0]
            print(f"recorded {bench.ref_key} {op.key}", flush=True)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal sizes, for the smoke check")
    parser.add_argument("--record", action="store_true",
                        help="recompute reference.json for --workload (default: all)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, import included, and print its seconds")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    _pin_threads()
    start = time.perf_counter()
    try:
        lib = _import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        bench = Bench(lib, WORKLOADS[args.workload], args.tiny)
        bench.setup(bench.input_seed(args.seed, 0))
        print(time.perf_counter() - start)
        return 0

    if args.record:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        for name in names:
            for tiny in (False, True):
                bench = Bench(lib, WORKLOADS[name], tiny)
                reference[bench.ref_key] = record(bench)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0

    print("machine " + json.dumps(machine_record(args.seed)))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          + (" tiny" if args.tiny else ""))
    bench = Bench(lib, WORKLOADS[args.workload], args.tiny)
    measure(bench, args.seed, args.seconds, bool(args.trace), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
