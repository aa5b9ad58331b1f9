"""Start ``repro serve`` in this process, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py --report PATH [--trace] -- SERVE_ARGS

``SERVE_ARGS`` are passed to ``repro serve`` unchanged.
With ``--trace`` the layer wrappers of :mod:`spans` (and the server's
request-handler and admission-queue hooks) are installed before the
server starts.  SIGTERM drains the server as usual; once ``repro serve``
returns, the launcher writes a JSON report to ``PATH``: the process's peak
resident memory and, when traced, every recorded span.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder, service=True)
    from repro import cli
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    status = cli.main(["serve"] + serve_args)
    report = {"status": status,
              "peak_rss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        report["trace"] = recorder.dump()
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
