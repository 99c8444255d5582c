"""One CLI process: ``python cli_child.py SPANS_PATH|- <cli arguments>``.

Runs ``quantbsde.cli.main`` on the arguments and exits with its exit code.
With a SPANS_PATH it installs the benchmark's tracer first and writes the
recorded spans there; with ``-`` it runs untraced. Either way it prints
``peak_rss_kb=<n>`` to stderr on exit, the peak resident memory of this
process's own address space.
"""

import atexit
import sys


def peak_rss_kb() -> int:
    """VmHWM of the calling process.

    ``ru_maxrss`` is not used: a process started with vfork and exec keeps the
    high-water mark of the parent it was started from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    atexit.register(lambda: print(f"peak_rss_kb={peak_rss_kb()}", file=sys.stderr))
    from quantbsde import cli

    if spans_path == "-":
        return cli.main(argv)
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        return cli.main(argv)
    finally:
        tr.uninstall()
        tracing.dump(tr.take(), spans_path)


if __name__ == "__main__":
    sys.exit(main())
