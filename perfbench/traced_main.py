"""Run one ``optrr`` command in-process with the outside-in tracer installed.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_main.py --out trace.jsonl --run-id RUN -- optimize ...

The first thing it does is time ``import repro.cli`` in this fresh
interpreter.  It then wraps every layer boundary (see ``tracing.install``),
calls ``repro.cli.main(argv)`` inside a root ``cli.main`` span, and writes
the spans as JSONL to ``--out``.  Forked worker processes write their spans
to ``<out>.children/``.  The exit code is the command's.
"""

import sys
import time

_IMPORT_START = time.perf_counter()
import repro.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    child_dir = args.out.with_name(args.out.name + ".children")
    child_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(args.run_id, child_dir)
    missing = tracing.install(tracer)
    code = tracer.call("cli.main", repro.cli.main, (argv,), {}, None)
    tracer.write(args.out, header={
        "run": args.run_id,
        "import_s": _IMPORT_S,
        "missing_targets": missing,
        "repro_file": repro.cli.__file__,
    })
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
