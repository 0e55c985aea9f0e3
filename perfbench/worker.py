"""One repetition of a workload's CLI stage sequence, in a fresh process.

Usage: ``python3 worker.py <spec.json>``.  The spec names the package's
``src`` directory, the stage argv lists, whether to trace, and where to
write the result.  The worker imports the package (timed, part of
set-up), then drives every stage in-process through
``cmdsim.cli.run(argv)``, one after the other, and records the
sequence's wall time, the process's user+system CPU time over it, and
the process's peak resident memory.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
import traceback


class _ProviderFailureCounter(logging.Handler):
    """Counts synthesis steps whose completion still raised after the
    gateway's retries; ``synthesize_step`` logs each one."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.failures = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("provider %s failed"):
            self.failures += 1


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from cmdsim import cli

    import_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    counter = _ProviderFailureCounter()
    logging.getLogger("cmdsim.synthesis").addHandler(counter)

    stages = []
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    for index, stage in enumerate(spec["stages"]):
        stage_start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.stage(f"{index}:{stage['name']}", f"cli.{stage['name']}"):
                    code = cli.run(stage["argv"])
            else:
                code = cli.run(stage["argv"])
        except Exception:  # a crashing stage counts as failed; later stages still run
            traceback.print_exc()
            code = -1
        stages.append({**stage, "code": code, "seconds": time.perf_counter() - stage_start})
    wall_s = time.perf_counter() - wall_start
    cpu_s = _cpu_seconds() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "stages": stages,
        "provider_failures": counter.failures,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.metrics(tracer, stages)
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
