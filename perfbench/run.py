#!/usr/bin/env python3
"""The repository benchmark: one workload through sim::Simulation per call.

    python3 perfbench/run.py --workload cutoff_clustered --seed 2013 --seconds 20 --trace 0

Run from the repository root. The first call builds perfbench/ (and the
library sources it includes) into .bench_build/perfbench; later calls only
re-check the build. Every run happens in fresh processes under a deadline,
and the process group of each is killed and reaped when it ends.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
the per-layer metrics of a separate traced run. Either way the last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it are a human-readable report and the run's manifest.
--workload all runs the workloads BENCHMARK.json lists, in turn (one result
line each); allpairs_sweep and replicate_deep run only when named.
See perfbench/README.md for the workloads, the metrics and the gates.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = ".bench_run"
BINARY = os.path.join(BUILD_DIR, "canb_perfbench")

WORKLOADS = ["allpairs_sweep", "cutoff_clustered", "replicate_deep", "mesh_live"]
SETUP_REPS = 7          # set-ups per run; setup_s is their median
FORCE_TOLERANCE = 2e-4  # tests/test_ca_all_pairs.cpp bounds force error by this
EXACT_PREFIX = 24       # steps the repeated traced run re-checks count by count
RUN_BUDGET_S = 170.0    # every run (after the build) must end within this


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; returns False when that fails."""
    env = dict(os.environ, CMAKE_BUILD_PARALLEL_LEVEL="4")
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "Makefile")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env, timeout=300).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "4"]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env, timeout=800).returncode == 0


def reap(pgid):
    """Kills what is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Failure(Exception):
    """A run that crashed, exited non-zero or passed its deadline."""

    def __init__(self, what, progress):
        super().__init__(what)
        self.progress = progress


def drive(args, deadline_s):
    """Runs the runner binary in its own session under a deadline; returns its
    result object. Raises Failure with the steps it got through."""
    env = dict(os.environ, TMPDIR=RUN_DIR)  # socket rendezvous dirs stay in the checkout
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline_s))
        what = None if proc.returncode == 0 else f"exit status {proc.returncode}"
    except subprocess.TimeoutExpired:
        reap(proc.pid)
        out, _ = proc.communicate()
        what = f"passed its {deadline_s:.0f} s deadline"
    reap(proc.pid)
    lines = out.strip().splitlines()
    progress = [int(l.split()[1]) for l in lines if l.startswith("progress ")]
    if what is None:
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            what = "printed no result"
    raise Failure(f"{' '.join(args[:4])}: {what}", progress[-1] if progress else 0)


def quantile(values, q):
    """Inclusive-method quantile of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest():
    """SHA-256 over the library sources, naming the code measured even in a
    checkout without git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


class Run:
    """One workload run: the timed run, the gates, and the reduced metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.report = {}

    def remaining(self):
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def common(self):
        return ["--workload", self.workload, "--seed", str(self.seed)]

    def timed(self, setup_reps):
        args = ["--mode", "run"] + self.common() + [
            "--seconds", str(self.seconds), "--setup-reps", str(setup_reps)]
        res = drive(args, min(3 * self.seconds + 40, self.remaining()))
        self.attempted = len(res["step_s"])
        self.check(res["force_deviation"] <= FORCE_TOLERANCE,
                   f"step-1 force error {res['force_deviation']:.3g} exceeds {FORCE_TOLERANCE}")
        return res

    def fixed(self, mode, steps, extra=()):
        """A fixed-length reference or traced run, under a deadline scaled
        from the timed window it repeats."""
        args = ["--mode", mode] + self.common() + ["--steps", str(steps)] + list(extra)
        return drive(args, min(6 * self.seconds + 40, self.remaining()))

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)

    def same_result(self, a, b, what):
        for key in ("state_hash", "ledger_hash"):
            self.check(a[key] == b[key], f"{what}: {key} {a[key]} != {b[key]}")

    def end_to_end(self):
        res = self.timed(SETUP_REPS)
        steps = res["step_s"]
        self.metrics = {
            "steps_per_s": len(steps) / res["window_s"],
            "step_ms_p50": statistics.median(steps) * 1e3,
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "virtual_step_ms": res["virtual_step_ms"],
        }
        # The tail percentile is reported but not gated: on a shared host its
        # run-to-run spread is wider than any bound BENCHMARK.json may set.
        self.report = {"timed_steps": len(steps), "step_ms_p90": quantile(steps, 90) * 1e3,
                       "setup_reps": len(res["setup_s"]), "manifest": res["manifest"]}
        # The gathered state and ledger must be bitwise equal to a one-thread,
        # no-transport run of the same problem; a workload that already is
        # that configuration is its own reference.
        if not res["self_reference"]:
            ref = self.fixed("reference", res["steps_total"])
            self.same_result(res, ref, "one-thread reference")

    def per_layer(self):
        res = self.timed(1)
        spans = os.path.join(RUN_DIR, f"spans-{self.workload}-seed{self.seed}.csv")
        traced = self.fixed("trace", res["steps_total"], ["--spans-out", spans])
        self.same_result(res, traced, "traced run")
        # The live plane never touches the ledger or the state, but its
        # exchanges send frames: equal traffic shows the traced twin's live
        # plane does what Simulation::step does.
        self.check(res["traffic"] == traced["traffic"],
                   f"traced run: transport traffic {traced['traffic']} != {res['traffic']}")
        self.check(traced["spans_outside_step"] == 0,
                   f"{traced['spans_outside_step']} spans fall outside their step span")
        # Counts that must repeat exactly for a fixed seed: a second traced
        # run over a prefix of the steps has to reproduce them one by one.
        repeat = self.fixed("trace", min(res["steps_total"], EXACT_PREFIX + 1))
        for key, values in repeat["exact"].items():
            self.check(values == traced["exact"][key][:len(values)],
                       f"per-step {key} differs between repeated traced runs")
        untraced_sps = len(res["step_s"]) / res["window_s"]
        traced_sps = (traced["steps_total"] - 1) / traced["window_s"]
        self.metrics = dict(traced["layers"])
        self.metrics["trace.overhead_ratio"] = untraced_sps / traced_sps
        self.report = {"traced_steps": traced["steps_total"] - 1, "spans": traced["spans"],
                       "spans_file": spans, "manifest": res["manifest"]}

    def execute(self):
        try:
            if self.trace:
                self.per_layer()
            else:
                self.end_to_end()
        except Failure as f:
            self.problems.append(str(f))
            self.attempted = max(self.attempted, f.progress, 1)
        if self.problems:
            self.failed = self.attempted = max(self.attempted, 1)
        return self

    def result(self, spec):
        wanted = spec["per_layer" if self.trace else "end_to_end"]
        metrics = {m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in self.metrics}
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)

    digest = source_digest()
    listed = [w["name"] for w in spec["workloads"]]
    for workload in listed if args.workload == "all" else [args.workload]:
        run = Run(workload, args.seed, args.seconds, args.trace).execute()
        result = run.result(spec)
        manifest = dict(run.report.pop("manifest", {}), workload=workload, seed=args.seed,
                        nproc=os.cpu_count(), source_sha256=digest)
        print(f"== {workload} seed={args.seed} trace={args.trace}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        if "step_ms_p90" in run.report:
            print(f"  {'step_ms_p90 (not gated)':28s} {run.report['step_ms_p90']:.6g} ms"
                  f" over {run.report['timed_steps']} steps")
        for problem in run.problems:
            print(f"  FAILED: {problem}")
        print(json.dumps({"manifest": manifest, "report": run.report}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
