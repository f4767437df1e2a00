"""One benchmark run of the multistable CLI in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job file names the package source directory, the CLI arguments, the
workload config, whether to trace, and where to write the result.  The run
measures what a CLI user pays on every invocation:

  setup_s      import of the package plus build_spec(config)
  wall_s       time inside multistable.cli.main([...])
  cpu_s        user plus system CPU seconds of this process inside main
  peak_rss_mb  peak resident memory of this process

A traced run installs the layer tracer before main, adds its per-layer
metrics to the result and writes its spans next to the result file.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    started = time.perf_counter()
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import multistable
    from multistable import cli

    if Path(multistable.__file__).resolve().parent != src / "multistable":
        print(f"imported multistable from {multistable.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    cli.build_spec(job["config"])
    setup_s = time.perf_counter() - started

    tracer = None
    if job["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = cli.main(job["argv"])
    wall_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(Path(job["result"]).with_name("trace_spans.json"))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
