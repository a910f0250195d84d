"""Fresh-interpreter helper of run.py; not meant to be run by hand.

    python3 perfbench/child.py setup WORKLOAD SEED
        import the package and build the workload's inputs, then exit
        (run.py times this from launch to exit: setup_s)
    python3 perfbench/child.py trace SPANS_FILE SINGLINK_ARGS...
        one CLI call with the tracer installed; its spans go to SPANS_FILE
"""
import sys

import workloads

if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        workloads.set_up(rest[0], int(rest[1]))
        sys.exit(0)
    if mode == "trace":
        import tracer

        cli = workloads.import_cli()
        spans = tracer.Tracer()
        spans.install()
        try:
            code = cli.main(rest[1:])
        finally:
            spans.write(rest[0])
        sys.exit(code)
    sys.exit(f"child.py: unknown mode {mode!r}")
