"""One benchmark job, run in a fresh interpreter.

    python3 bench/job.py run RSS_OUT [--trace SPANS_OUT] -- ARGS...
        runs ``python -m trusshom ARGS...`` in this process, the same way
        ``-m`` does (runpy), optionally under the layer tracer.
    python3 bench/job.py setup RSS_OUT DOC...
        imports the package and its command line, then parses and
        resolves each document; no analysis.

Either way the job writes its own peak resident set (``VmHWM``) to
RSS_OUT on exit.  The parent cannot use ``ru_maxrss`` for this: Linux
carries the parent's high-water mark into a child across fork/exec, so a
small job spawned from a large benchmark process would read as large as
that process.  The package is imported from the checkout's ``src``
directory only.
"""

from __future__ import annotations

import json
import runpy
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _import_package():
    sys.path.insert(0, str(SRC))
    import trusshom

    if Path(trusshom.__file__).resolve().parent != SRC / "trusshom":
        raise SystemExit(f"trusshom imported from {trusshom.__file__}, not from {SRC}")


def _run(argv: list[str], trace_out: str | None) -> int:
    _import_package()
    import trusshom.cli  # noqa: F401  (the tracer patches every layer module)

    tracer = None
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sys.argv = ["trusshom", *argv]
    t0 = time.perf_counter()
    try:
        runpy.run_module("trusshom", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    t1 = time.perf_counter()
    if tracer is not None:
        Path(trace_out).write_text(json.dumps(tracer.dump(t0, t1)))
    return code


def _setup(docs: list[str]) -> int:
    _import_package()
    import trusshom.cli  # noqa: F401  (every command pays this import)
    from trusshom import documents

    for path in docs:
        documents.document_to_truss(documents.parse_truss_document(Path(path).read_text()))
    return 0


def main(argv: list[str]) -> int:
    mode, rss_out, rest = argv[0], argv[1], argv[2:]
    try:
        if mode == "setup":
            return _setup(rest)
        trace_out = None
        if rest[:1] == ["--trace"]:
            trace_out, rest = rest[1], rest[2:]
        if rest[:1] != ["--"]:
            raise SystemExit("usage: job.py run RSS_OUT [--trace OUT] -- ARGS...")
        return _run(rest[1:], trace_out)
    finally:
        Path(rss_out).write_text(str(peak_rss_kib()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
