"""Run one lwemassart CLI command in a fresh interpreter and record it.

    python3 child.py RECORD_JSON TRACE CLI_ARGS...

TRACE is 0 (no wrappers), 1 (spans around the layers) or 2 (spans plus
the tracemalloc peak of the lattice sampler).  The record holds the
monotonic clock after ``import lwemassart.cli`` (the end of set-up) and
after ``main`` returns, the command's exit code, the process's peak RSS
and, when traced, the spans of the layers it called.  Always exits 0 once the
record is written; the exit code of the command is in the record.
"""

import json
import resource
import sys
import time
import traceback


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    record_path, trace, cli_args = argv[0], int(argv[1]), argv[2:]
    import click
    from lwemassart.cli import main as cli_main

    t_import = now()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, memory=trace == 2)
    code = 0
    try:
        if tracer is None:
            rv = cli_main(cli_args, standalone_mode=False)
        else:
            with tracer.span(tracing.ROOT):
                rv = cli_main(cli_args, standalone_mode=False)
        if isinstance(rv, int):
            code = rv
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    except Exception:  # the record must say how the command ended
        traceback.print_exc()
        code = 1
    t_end = now()
    record = {
        "exit_code": code,
        "t_import": t_import,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": None if tracer is None else tracer.spans,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
