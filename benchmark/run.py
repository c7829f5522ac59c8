"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Writes the workload's inputs, then
times the program in a fresh worker process with BLAS pinned to one thread
and ``SGNN_THREADS`` unset.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("desk_source", "full_source", "recsys")
TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int):
    """A pre-exec hook that has the kernel kill the worker when this process ends.

    The ``finally`` below stops the worker on every exit Python sees; this
    covers SIGKILL too, so no worker outlives a killed run.
    """
    def hook():
        try:
            ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        except (OSError, AttributeError):
            return
        if os.getppid() != parent:
            os._exit(1)
    return hook


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Time one SGNN training cell.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sgnn", "__init__.py")):
        print(f"benchmark: no program source at {os.path.join(ROOT, 'src', 'sgnn')}",
              file=sys.stderr)
        return 2

    os.environ.update(PINNED)
    os.environ.pop("SGNN_THREADS", None)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    proc = None
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--result", os.path.join(run_dir, "result.json")]
        if args.workload == "recsys":
            import inputs

            ratings = os.path.join(run_dir, "u.data")
            inputs.write_ratings(ratings, inputs.DATA_SEED)
            cmd += ["--ratings", ratings]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=sys.stderr,
                                preexec_fn=_die_with_parent(os.getpid()))
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"benchmark: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"benchmark: worker exited with {code}", file=sys.stderr)
            return 1
        with open(os.path.join(run_dir, "result.json")) as f:
            result = json.load(f)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
