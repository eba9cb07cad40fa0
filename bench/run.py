"""Benchmark command for ta2n.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``train_full``, ``train_light`` or ``eval_pool`` (see
``bench/workloads.py`` for why each exists), or ``all``, which runs each in a
fresh process and prints one table. Run it from anywhere; it imports ta2n
from the ``src`` directory beside this one and exits non-zero without a
result if that is missing.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` a separate run wraps the layers' public functions and reports
the per-layer metrics, each tagged with the end-to-end metric it should
move. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any correctness check fails.
"""

import os

# Pin BLAS to one thread before numpy is imported, in this process and so in
# its pool children: thread count times pool workers must not exceed the
# cores, or workers=2 reads slower than serial.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[0:1] = [str(SRC), str(ROOT)]  # in place of this script's own directory

from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_workloads():
    """The workloads module, which imports ta2n from ``SRC``; None when ta2n is not there."""
    try:
        import ta2n
    except ImportError as exc:
        print(f"error: cannot import ta2n from {SRC}: {exc}", file=sys.stderr)
        return None
    if SRC.resolve() not in Path(ta2n.__file__).resolve().parents:
        print(f"error: ta2n was imported from {ta2n.__file__}, not {SRC}", file=sys.stderr)
        return None
    from bench import workloads

    return workloads


def environment(workers: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={len(os.sched_getaffinity(0))} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']} "
        f"blas={blas.get('name')} {blas.get('version')} numpy={np.__version__} "
        f"python={platform.python_version()} pool_workers={workers}"
    )


def print_report(report, trace: bool) -> None:
    for name, ok, detail in report.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))
    for note in report.notes:
        print(f"# {note}")
    frac = report.failed / max(report.attempted, 1)
    print(f"# failed_frac {frac:.6g} ratio ({report.failed} of {report.attempted} episodes raised)")
    if not trace:
        for m in END_TO_END:
            print(f"{m.name:<16} {report.metrics[m.name]:>14.6f} {m.unit:<4} {m.note}")
        return
    print("# per-layer metrics (predicted to move: workload/metric)")
    for m in PER_LAYER:
        moves = ", ".join(f"{w}/{e}" for w, e in m.moves) or "-"
        note = f"  [{m.note}]" if m.note else ""
        if report.layers[m.name] == 0 and m.moves and report.workload not in {w for w, _ in m.moves}:
            note += "  [not on this workload's path]"
        print(f"{m.name:<40} {report.layers[m.name]:>14.6f} {m.unit:<14} -> {moves}{note}")
    print("# spans by self time (calls, total ms, self ms), all traced phases")
    for name, calls, total, own in report.self_times[:20]:
        print(f"#   {name:<40} {calls:>8} {1e3 * total:>12.3f} {1e3 * own:>12.3f}")


def result_line(report, trace: bool) -> dict:
    table, values = (PER_LAYER, report.layers) if trace else (END_TO_END, report.metrics)
    return {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is per workload."""
    results, ok = {}, True
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[workload] = json.loads(lines[-1])
        ok &= proc.returncode == 0 and results[workload]["correct"]
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"# {'summary':<40} " + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        cells = "".join(f"{results[w]['metrics'][name]['value']:>16.6g}" for w in WORKLOADS)
        print(f"# {name:<40} {cells}  {results[WORKLOADS[0]]['metrics'][name]['unit']}")
    fracs = "".join(f"{r['failed'] / max(r['attempted'], 1):>16.6g}" for r in results.values())
    print(f"# {'failed_frac':<40} {fracs}  ratio")
    if args.trace == 0:
        print("# eval_pool step_ms.* time a serial forward-only episode; train steps include backward and SGD")
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workloads = import_workloads()
    if workloads is None:
        return 2
    trace = bool(args.trace)
    print(f"# ta2n benchmark workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    workers = workloads.EVAL_WORKERS if args.workload == "eval_pool" else 1
    print(f"# environment {environment(workers)}", flush=True)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        report = workloads.run(args.workload, args.seed, args.seconds, trace, Path(workdir))
    print_report(report, trace)
    print(json.dumps(result_line(report, trace)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
