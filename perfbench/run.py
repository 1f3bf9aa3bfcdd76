"""qecbound benchmark driver.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; the code measured is the
checkout's `src/`.  Each workload runs in fresh interpreters started from
this process (`perfbench/child.py`), one at a time, plus at most one
decoder process.  With `--trace 0` eight measuring interpreters, each
given an eighth of the time, give the end-to-end metrics; with `--trace 1`
one traced interpreter gives the per-layer metrics.  Metric names and units
come from BENCHMARK.json.  Human-readable lines come first; the last line
of standard output is one JSON object.  A result file with provenance,
per-unit samples and quartiles is written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEMO_DEM, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Untraced runs are split over this many fresh interpreters.  Each gives
# one set-up sample, and each draws its own placement of the workload and
# decoder processes on the CPUs, which alone moves `exec-ml20` by up to a
# third from one interpreter to the next.
MEASURE_CHILDREN = 8
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def stats(samples: list[float]) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples), "samples": samples}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own `.git`, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_child(spec_path: Path, role: str, deadline: float) -> dict:
    """Run one fresh interpreter to completion; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), role],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its decoder process
        proc.communicate()
        raise ChildFailed(f"{role} child timed out")
    finally:
        try:  # whatever of the session is left, such as a decoder process
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{role} child exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    src = (ROOT / "src").resolve()
    if src not in Path(result["qecbound_file"]).resolve().parents:
        raise ChildFailed(f"{role} child imported qecbound from {result['qecbound_file']}")
    return result


def per_unit(units: list[dict], key: str) -> list[float]:
    return [u[key] for u in units]


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    spec = make_inputs(name, seed, ROOT, OUT)
    share = seconds if trace else seconds / MEASURE_CHILDREN
    spec.update(seconds=share, min_units=2 if trace else 1, out_dir=str(OUT))
    spec_path = OUT / f"{name}_seed{seed}_spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    load_before = os.getloadavg()
    attempted = failed = 0
    failures: list[str] = []
    children: list[dict] = []
    for _ in range(1 if trace else MEASURE_CHILDREN):
        attempted += 1
        try:
            children.append(run_child(spec_path, "trace" if trace else "measure", deadline))
        except (ChildFailed, ValueError, KeyError, IndexError) as exc:
            failed += 1
            failures.append(str(exc))
    if not children:
        raise ChildFailed("; ".join(failures))
    for child in children:
        attempted += child["checks"]["attempted"]
        failed += child["checks"]["failed"]
        failures += child["checks"]["failures"]
    last = children[-1]

    detail: dict[str, dict] = {}
    units = [u for child in children for u in child["units"]]
    if not trace:
        digests = {c["records_digest"] for c in children}
        attempted += 1
        if len(digests) != 1:
            failed += 1
            failures.append(f"interpreters produced {len(digests)} different record sets")
        detail["setup_s"] = stats([c["setup_s"] for c in children])
        detail["shots_per_s"] = stats(per_unit(units, "shots_per_s"))
        detail["time_to_target_s"] = stats(per_unit(units, "time_to_target_s"))
        detail["peak_rss_mb"] = stats([c["peak_rss_mb"] for c in children])
        wanted = bench["end_to_end"]
    else:
        counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
        for key in units[0]:
            values = per_unit(units, key)
            detail[key] = stats(values)
            if key in counts:
                # counts must repeat exactly; report the value, not a mean
                attempted += 1
                detail[key]["median"] = values[0]
                if len(set(values)) != 1:
                    failed += 1
                    failures.append(f"counter {key} differs between traced units: {values}")
        for key, value in last["setup_layers"].items():
            detail[key] = stats([value])
        traced_run = statistics.median(per_unit(units, "driver.run_s"))
        detail["trace.overhead_frac"] = stats(
            [traced_run / statistics.median(last["untraced_run_s"]) - 1.0])
        wanted = bench["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in detail:
            raise ChildFailed(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": detail[m["name"]]["median"], "unit": m["unit"]}

    result = {
        "workload": name,
        "why": WORKLOADS[name]["why"],
        "seed": seed,
        "derived_seeds": spec.get("run_seeds"),
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "metrics": metrics,
        "detail": detail,
        "units": units,
        "exact_rate": last["exact"],
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": last["numpy"],
            "git_commit": git_commit(),
            "source_digest": source_digest(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    if trace:
        result["missing_trace_targets"] = last["missing_targets"]
        result["untraced_run_s"] = last["untraced_run_s"]
    else:
        result["decoder_peak_rss_mb"] = [c["children_peak_rss_mb"] for c in children]
    path = OUT / f"{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def describe(result: dict) -> list[str]:
    lines = [f"{result['workload']} seed={result['seed']} trace={result['trace']} "
             f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
             f"(failed_frac={result['failed_frac']:g})"]
    for name, m in result["metrics"].items():
        d = result["detail"][name]
        spread = f", q1 {d['q1']:.6g}, q3 {d['q3']:.6g}" if "q1" in d else ""
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']} (median of {d['n']}{spread})")
    for msg in result["failures"]:
        lines.append(f"  FAILED: {msg}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qecbound/__init__.py", str(DEMO_DEM), "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a qecbound source checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace), bench))
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for line in describe(results[-1]):
            print(line, flush=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
