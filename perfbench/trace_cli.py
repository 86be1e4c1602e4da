"""Run one boolemaps CLI command with the benchmark's tracer installed.

    python perfbench/trace_cli.py PREFIX [CLI ARGUMENTS...]

When the command ends, however it ends, the spans go to
``PREFIX.spans.npz`` and the per-name aggregates to ``PREFIX.json``.  The
exit status and any traceback are the command's own.
"""

import sys

import tracer


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    spans.install()
    from boolemaps import cli

    try:
        return cli.main(argv)
    finally:
        spans.write(prefix)


if __name__ == "__main__":
    raise SystemExit(main())
