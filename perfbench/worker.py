"""Timed phase of one benchmark run, in a process of its own.

Started by run.py once the inputs exist, so that this process's peak
resident memory covers the timed phase and not the set-up. It runs whole
rounds of one command until the requested seconds have passed and writes
each round's wall time to a JSON file. With tracing on, every round is
run twice, untraced and then traced, so the two throughputs sit side by
side.

    python3 perfbench/worker.py SPEC.json
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from wafersense import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    run_dir = Path(spec["run_dir"])
    modes = (False, True) if tracer else (False,)
    rounds: list[dict] = []
    elapsed = 0.0
    while len(rounds) < spec["min_rounds"] * len(modes) or elapsed < spec["seconds"]:
        for traced in modes:
            round_dir = run_dir / f"round_{len(rounds) + 1:04d}"
            round_dir.mkdir()
            argv = [a.replace("{round}", str(round_dir)) for a in spec["argv"]]
            if traced:
                tracer.round = len(rounds) + 1
                tracer.epoch = 0
                tracer.install()
            started = time.perf_counter()
            try:
                ok = cli.main(argv) == 0
            except Exception:
                traceback.print_exc()
                ok = False
            seconds = time.perf_counter() - started
            if traced:
                tracer.uninstall()
            rounds.append({"dir": str(round_dir), "seconds": seconds, "ok": ok,
                           "traced": traced})
            elapsed += seconds

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer:
        traced = [r["seconds"] for r in rounds if r["traced"]]
        layers, not_reached = tracer.layer_metrics(len(traced))
        result.update(layers=layers, not_reached=not_reached, missing=tracer.missing)
        Path(spec["spans_path"]).write_text(json.dumps({
            "rounds": rounds, "blas_threads": result["blas_threads"],
            "missing": tracer.missing, "not_reached": not_reached, "layers": layers,
            "summary": tracer.summary(len(traced), sum(traced) / len(traced)),
            "spans": [s.as_dict() for s in tracer.spans],
        }), encoding="utf-8")
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
