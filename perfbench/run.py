"""Benchmark of `torushom all` jobs on seeded inputs.

    python3 perfbench/run.py --workload torus7_Q --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Load shape: a closed loop with one
client, so one job process runs at a time, each `python3 -m torushom.cli all`
on the files `workloads.py` wrote for the seed.  Every job passes the
correctness gate or counts as failed.

`--trace 0` reports the end-to-end metrics: the medians of `job_s` (wall,
spawn to exit), `job_cpu_s` and `peak_rss_mb` (the job's own rusage) over
the jobs, and of `setup_s` over fresh interpreters, one started before each
job, that import `torushom.cli`, parse the inputs and exit.  `--trace 1`
alternates untraced jobs with jobs run under `spans.py` and reports the
per-layer metrics: the traced jobs' counts, which must repeat exactly, their
median times, and `trace.overhead`, the traced median `job_s` over the
untraced one.

The last stdout line is the result object; the line before it holds the
run's context (nproc, Python, commit, load average), the per-job samples,
`fail_frac` and the sha256 of the job's stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

JOB_TIMEOUT_S = 60

PROBE = """\
import sys
from pathlib import Path
from torushom import cli
from torushom.formats import parse_facet_list, parse_charmap
parse_facet_list(Path(sys.argv[1]).read_text(encoding="utf-8"))
if len(sys.argv) > 2:
    parse_charmap(Path(sys.argv[2]).read_text(encoding="utf-8"))
"""


class Job:
    """One child process: wall seconds, CPU seconds, peak RSS and output.

    A child's ru_maxrss starts from the peak RSS of the process that spawned
    it, since Linux carries the old address space's high-water mark across
    exec.  So until the last job has ended this process imports neither
    torushom nor `spans` and `hashlib`, and parses no spans: it stays smaller
    than any job, and `runner_rss_mb` on the detail line shows by how much.
    """

    def __init__(self, cmd, cwd: Path, out: Path):
        lock = threading.Lock()
        reaped = False
        err = out.with_suffix(".err")
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=fout, stderr=ferr)

            def kill():
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(JOB_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - t0
                with lock:
                    reaped = True
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out.read_bytes()
        self.stderr = err.read_bytes()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
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


def own_peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def context() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "loadavg": list(os.getloadavg())}


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.argv = json.loads(subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(workdir)],
            env=ENV, check=True, capture_output=True, timeout=JOB_TIMEOUT_S).stdout)
        self.count = 0
        self.problems = []

    def _job(self, cmd, tag):
        self.count += 1
        return Job(cmd, self.workdir, self.workdir / f"{tag}{self.count}.out")

    def probe(self) -> Job:
        files = [self.argv[i + 1] for i, a in enumerate(self.argv)
                 if a in ("--facets", "--charmap")]
        job = self._job([sys.executable, "-c", PROBE, *files], "probe")
        if job.returncode != 0:
            self.problems.append(f"set-up probe: exit status {job.returncode}: "
                                 + job.stderr.decode(errors="replace")[-300:])
        return job

    def job(self, traced=False) -> Job:
        if traced:
            spans_file = self.workdir / f"spans{self.count + 1}.json"
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_file),
                   f"{self.workload}-{self.count + 1}", *self.argv]
        else:
            cmd = [sys.executable, "-m", "torushom.cli", *self.argv]
        job = self._job(cmd, "job")
        job.problems = check_report(self.workload, job.returncode, job.stdout)
        if job.problems and job.stderr:
            job.problems.append(job.stderr.decode(errors="replace")[-300:])
        if traced:
            job.spans_file = spans_file
        return job


def measure(run: Run, seconds: float, trace: bool):
    """Rounds of work for `seconds`; returns (jobs, traced jobs, probes).

    A round is a set-up probe and a job, or with tracing an untraced and a
    traced job.  Spreading the probes between the jobs keeps one burst of
    load on the machine from deciding setup_s.
    """
    run.probe()  # writes the bytecode caches; not timed
    start = time.perf_counter()
    jobs, traced, probes, rounds = [], [], [], []
    while True:
        t0 = time.perf_counter()
        if trace:
            traced.append(run.job(traced=True))
        else:
            probes.append(run.probe())
        jobs.append(run.job())
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(rounds) > seconds:
            return jobs, traced, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torushom" / "cli.py").is_file():
        print(f"error: no torushom sources under {SRC}", file=sys.stderr)
        return 2

    ctx = context()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, workdir)
        jobs, traced, probes = measure(run, args.seconds, bool(args.trace))
        runner_rss_mb = own_peak_rss_mb()
        import hashlib
        import spans
        layer = []
        for j in traced:
            if j.returncode == 0:
                data = json.loads(j.spans_file.read_text(encoding="utf-8"))
                layer.append(spans.layer_metrics(data["spans"], data["distinct"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    everything = jobs + traced
    failed = sum(1 for j in everything if j.problems)
    problems = list(run.problems)
    problems += [f"job {i}: {p}" for i, j in enumerate(everything, 1) for p in j.problems]
    if len({j.stdout for j in everything}) > 1:
        problems.append("stdout differs between jobs of one seed")

    if args.trace:
        if any(m[k] != layer[0][k] for m in layer for k in spans.COUNTS):
            problems.append("traced counts differ between jobs")
        # counts repeat exactly, so they are the first job's; times are medians
        first = layer[0] if layer else dict.fromkeys(spans.METRICS, 0)
        values = {k: first[k] if k in spans.COUNTS else median([m[k] for m in layer])
                  for k in spans.METRICS}
        values["trace.overhead"] = (median([j.wall_s for j in traced])
                                    / median([j.wall_s for j in jobs]))
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
    else:
        metrics = {
            "job_s": {"value": median([j.wall_s for j in jobs]), "unit": "s"},
            "job_cpu_s": {"value": median([j.cpu_s for j in jobs]), "unit": "s"},
            "setup_s": {"value": median([p.wall_s for p in probes]), "unit": "s"},
            "peak_rss_mb": {"value": median([j.rss_mb for j in jobs]), "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "context": ctx,
        "samples": {"jobs": len(jobs), "traced_jobs": len(traced), "setup": len(probes)},
        "job_s": [j.wall_s for j in jobs],
        "job_cpu_s": [j.cpu_s for j in jobs],
        "peak_rss_mb": [j.rss_mb for j in jobs],
        "traced_job_s": [j.wall_s for j in traced],
        "setup_s": [p.wall_s for p in probes],
        "fail_frac": failed / len(everything),
        "runner_rss_mb": runner_rss_mb,
        "stdout_sha256": hashlib.sha256(everything[0].stdout).hexdigest(),
        "problems": problems,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": len(everything),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
