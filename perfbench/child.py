"""Run feta CLI commands in this fresh interpreter.

    python3 -I perfbench/child.py SRC run -- ARGV...
    python3 -I perfbench/child.py SRC trace OUT -- ARGV...
    python3 -I perfbench/child.py SRC batch -- ARGV... -- ARGV...

`run` is one plain CLI invocation against the package under SRC. `trace`
does the same with the benchmark's spans installed around the layers'
public functions and writes them to OUT when the command ends. `batch` runs
several commands in this one process with their output discarded and prints
their exit codes as a JSON list; the benchmark uses it for the per-product
oracle, where caching between commands does not matter.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys


def _argvs(rest: list[str]) -> list[list[str]]:
    out: list[list[str]] = []
    for item in rest:
        if item == "--":
            out.append([])
        else:
            out[-1].append(item)
    return out


def main() -> int:
    src, mode, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    if mode == "run":
        from feta.cli import main as feta_main

        return feta_main(_argvs(rest)[0])
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        out, *rest = rest
        tracer = Tracer()
        try:
            return tracer.run_cli(_argvs(rest)[0])
        finally:
            sys.stdout.flush()
            tracer.write(out)
    if mode == "batch":
        from feta.cli import main as feta_main

        codes = []
        for argv in _argvs(rest):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(feta_main(argv))
        print(json.dumps(codes))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
