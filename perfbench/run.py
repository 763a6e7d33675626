"""semihartree benchmark: run a workload at one seed and print its metrics.

    python3 perfbench/run.py --workload rescaled --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run it from the repository root; it needs no build and no install, only
`src/` next to this directory.  The workload runs in a fresh subprocess
(workload.py) with BLAS and OpenMP pools capped at one thread, and `import
semihartree` plus the config parse is timed in four more fresh processes.
Each workload prints two lines.  The second is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  The end-to-end times are in reference seconds: wall seconds
scaled by the speed of the calibration job of calibrate.py, timed during
each sweep and right after each import.  The
first line records the host (versions, CPU count and model, load average),
every raw sweep and setup time with its calibration time, the rows of the
first sweep and any failed check.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "semihartree"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
from workload import WORKLOADS, config_text  # noqa: E402

# with every probe at its limit a run still ends within 180 s
CHILD_TIMEOUT_S = 110
PROBE_TIMEOUT_S = 15
# fresh processes that time only the import and the parse, half before and
# half after the workload; with the workload child they give five samples
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one thread per process: with --jobs 2 that is two threads on two cores
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(argv: list, env: dict, timeout: float) -> dict:
    """Run a Python child in its own process group and return the JSON
    object on its last stdout line; on timeout the whole group is killed."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[0]} did not finish within {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(lines[-1])


def _host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "loadavg_1min": os.getloadavg()[0]}


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 wanted: list) -> int:
    """Run one workload and print its host line and result line."""
    env = _child_env()
    host = _host()
    config = config_text(workload, seed)
    probe = [str(HERE / "setup_probe.py"), config]
    try:
        setups = [_run_child(probe, env, PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES // 2)]
        child_argv = [str(HERE / "workload.py"), "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            child_argv += ["--trace-out", str(OUT_DIR / f"trace-{workload}-seed{seed}.json")]
        child = _run_child(child_argv, env, CHILD_TIMEOUT_S)
        setups.append(child)
        setups += [_run_child(probe, env, PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES // 2)]
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted, failed = child["attempted"], child["failed"]
    if trace:
        values = dict(child["layers"])
        values["import_s"] = statistics.median(s["import_s"] for s in setups)
        values["config.parse_s"] = statistics.median(s["parse_s"] for s in setups)
    else:
        values = {
            "sweep_s": statistics.median(child["sweep_ref_s"]),
            "setup_s": statistics.median((s["import_s"] + s["parse_s"]) * calibrate.scale(s["job_s"])
                                         for s in setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "passed_fraction": 1.0 - failed / attempted,
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark: metrics not produced: {missing}", file=sys.stderr)
        return 1

    print(json.dumps({"workload": workload, "seed": seed, "config": config,
                      "host": dict(host, **child["versions"]),
                      "sweep_s": child["sweep_s"], "sweep_ref_s": child["sweep_ref_s"],
                      "calibration_s": child["calibration_s"],
                      "setup_s": [s["import_s"] + s["parse_s"] for s in setups],
                      "setup_job_s": [s["job_s"] for s in setups],
                      "rows": child["rows"],
                      "messages": child["messages"]}))
    print(json.dumps({
        "correct": failed == 0 and not child["messages"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semihartree benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no semihartree sources at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # bytecode is compiled once per checkout; users do not pay for it per run
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(w, args.seed, args.seconds, args.trace, wanted) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
