"""Traced stand-in for ``python -m lagidx``, used by the traced cli-cold run.

Usage: cli_child.py RESULT_FILE ARGV...

Times ``import lagidx``, then runs ``lagidx.cli.main(ARGV)`` with the
tracer installed, so ``document.load`` and ``cli.main`` get spans.  The
command's own output goes to stdout unchanged; the timings and spans go
to RESULT_FILE as JSON.  Exits with the command's exit code.
"""

import json
import sys
import time


def main() -> int:
    result_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import lagidx  # noqa: F401  (timed)
    import_ms = (time.perf_counter() - start) * 1e3
    scipy_loaded = "scipy.linalg" in sys.modules
    import lagidx.cli

    import tracer as tr

    tracer = tr.Tracer()
    tracer.op = 0
    with tracer.installed():
        code = lagidx.cli.main(argv)
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump({"import_ms": import_ms, "scipy_loaded": scipy_loaded, "exit": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
