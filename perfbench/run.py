"""End-to-end and per-layer benchmark of watertight.pipeline.run_pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-march --seed 0 --seconds 30 --trace 0

One operation is one case: a surface pair run through ``run_pipeline`` and
then saved and reloaded through ``model_io``.  A round runs every case of
the workload once; a run repeats whole rounds while the next one is
expected to end within ``--seconds`` (at least one round).  Outputs are
checked against the analytic inputs (checks.py) and must repeat bit for bit
in every round.

``--trace 0`` prints the end-to-end metrics; set-up time is the median of
several fresh interpreters that import the program and build the inputs.
``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics of the traced round; its spans go to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``src/watertight`` next to this directory the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
WORKLOADS = ("dense-march", "tight-fit", "clip-reduce")


def import_program():
    """Put the checkout's src/ first on the path and import watertight from it."""
    package = SRC / "watertight"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: {package} not found; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import watertight

    if Path(watertight.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported watertight from {watertight.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting an interpreter until it has built the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return t1 - t0


def run_case(case, path: Path):
    """One operation: run_pipeline, then save_model and load_model."""
    import watertight.model_io as model_io
    import watertight.pipeline as pipeline

    result = pipeline.run_pipeline(case.surface_a, case.surface_b, case.config)
    saved = model_io.ModelFile(
        surfaces=[case.surface_a, case.surface_b],
        intersection=result.data,
        patch_sets=[model_io.encode_patch_set(result.model.set_a),
                    model_io.encode_patch_set(result.model.set_b)],
        reports=result.report,
    )
    model_io.save_model(saved, str(path))
    loaded = model_io.load_model(str(path))
    return result, saved, loaded


@dataclass
class CaseOutput:
    """What the end-to-end metrics need from one case's checked output."""

    points: int
    patches: int
    control_points: int
    stitch_deviation: float
    pre_gap: float
    surface_error: float


class Measurement:
    """Rounds over a workload's cases.

    The first round's outputs are checked as they arrive and reduced to a
    CaseOutput; later rounds must write byte-identical model files.  No
    round keeps its results, so memory does not grow with the round count.
    """

    def __init__(self, cases, out_dir: Path):
        self.cases = cases
        self.out_dir = out_dir
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.outputs = []
        self.fails = []
        self._digests = None

    def round(self) -> float:
        wall = 0.0
        digests = []
        for k, case in enumerate(self.cases):
            path = self.out_dir / f"case{k}-{case.name}.json"
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result, saved, loaded = run_case(case, path)
            except Exception:  # one failed operation; the run goes on
                wall += time.perf_counter() - t0
                self.failed += 1
                digests.append(None)
                print(f"perfbench: case {case.name} failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            wall += time.perf_counter() - t0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            if self._digests is None:
                self.outputs.append(self._check(case, result, saved, loaded))
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            self.fails.append(f"round {len(self.walls) + 1} output differs from round 1")
        self.walls.append(wall)
        return wall

    def _check(self, case, result, saved, loaded) -> CaseOutput:
        import checks

        fails, surface_error = checks.check_case(case, result, saved, loaded)
        self.fails += fails
        nets = [p.control_net for s in (result.model.set_a, result.model.set_b)
                for p in s.patches]
        report = result.report
        return CaseOutput(
            points=len(result.data.points),
            patches=len(nets),
            control_points=sum(n.shape[0] * n.shape[1] for n in nets),
            stitch_deviation=report["stitch_deviation"],
            pre_gap=max(report["pre_stitch_gap_a"]["max"], report["pre_stitch_gap_b"]["max"]),
            surface_error=surface_error,
        )

    def end_to_end_metrics(self, setup_times) -> dict:
        wall = statistics.median(self.walls)
        out = self.outputs

        def largest(values):
            return max(values, default=0.0)

        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "points_per_s": (sum(o.points for o in out) / wall, "1/s"),
            "patches": (sum(o.patches for o in out), "count"),
            "control_points": (sum(o.control_points for o in out), "count"),
            "stitch_deviation_max": (largest(o.stitch_deviation for o in out), "length"),
            "surface_error_max": (largest(o.surface_error for o in out), "length"),
            "pre_gap_max": (largest(o.pre_gap for o in out), "length"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: jitters the plane coefficients and mirror lift")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; whole rounds only, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.setup_probe:
        workloads.build_cases(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_times = []
    if not args.trace:
        setup_times = [time_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    cases = workloads.build_cases(args.workload, args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    run = Measurement(cases, out_dir)
    if args.trace:
        import tracer

        run.round()
        trace = tracer.Tracer()
        trace.install()
        try:
            run.round()
        finally:
            trace.uninstall()
        metrics = trace.layer_metrics(rounds=1)
        metrics["trace.overhead_s"] = (run.walls[1] - run.walls[0], "s")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "untraced_wall_s": run.walls[0],
            "traced_wall_s": run.walls[1],
            "self_seconds": trace.self_times(),
            "spans": [list(s) for s in trace.spans],
        }))
    else:
        start = time.perf_counter()
        while True:
            last = run.round()
            if time.perf_counter() - start + last > args.seconds:
                break
        metrics = run.end_to_end_metrics(setup_times)

    for line in run.fails:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    correct = not run.fails
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(run.walls)}  "
          f"cases {len(cases)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  attempted {run.attempted}  failed {run.failed}  correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
