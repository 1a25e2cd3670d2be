"""One fresh interpreter of the benchmark: time set-up, then optionally run
one serrinlab CLI invocation, and write the figures as JSON.

    python3 child.py SRC RESULT_JSON setup
    python3 child.py SRC RESULT_JSON run|trace CLI_ARG...

Set-up is the import of ``serrinlab.cli`` plus building its parser, timed
in process CPU time.  The invocation is timed around ``serrinlab.cli.main``,
the console entry point, in wall time and in CPU time (this process and any
children it reaps, user plus system).
``trace`` wraps the layers (see tracer.py) after set-up and adds the spans
to the result.  Peak RSS is this process's own high-water mark.
"""

import json
import resource
import sys
import time
from pathlib import Path


def cpu_time():
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    src, result_path, mode = Path(sys.argv[1]).resolve(), sys.argv[2], sys.argv[3]
    cli_args = sys.argv[4:]
    sys.path.insert(0, str(src))

    t0 = time.process_time()
    from serrinlab import cli
    cli.build_parser()
    setup_s = time.process_time() - t0

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"serrinlab was imported from {cli.__file__}, not from {src}")

    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.dont_write_bytecode = True
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer()
            missing = tracer.install()
            if missing:
                print(f"trace targets not found: {missing}", file=sys.stderr)
        cpu1, t1 = cpu_time(), time.perf_counter()
        status = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - t1
        result["cpu_s"] = cpu_time() - cpu1
        result["status"] = status
        if tracer is not None:
            result.update(tracer.dump())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
