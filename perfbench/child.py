"""One timed benchmark iteration, run as a fresh process.

    python3 perfbench/child.py SPEC.json

SPEC holds ``src`` (the andlib source tree), ``commands`` (argument lists
for ``andlib.cli.main``, run in order in this process), ``log`` (where the
commands' standard output goes), ``result`` (where this process writes its
report) and ``trace`` (wrap andlib's functions with the tracer first).

The report holds each command's exit code, this process's peak RSS, and,
when traced, the per-layer figures and the span list.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    report: dict = {"exit_codes": [], "error": None}
    tracer = None
    with open(spec["log"], "w", encoding="utf-8") as log:
        try:
            from andlib import cli

            if spec["trace"]:
                import spans

                tracer = spans.Tracer()
                spans.install(tracer)
            for argv in spec["commands"]:
                with contextlib.redirect_stdout(log):
                    if tracer is not None:
                        with tracer.span(f"cli.{argv[0]}"):
                            code = cli.main(argv)
                    else:
                        code = cli.main(argv)
                report["exit_codes"].append(code)
                if code != 0:
                    break
        except Exception:  # the report must be written whatever the program did
            report["error"] = traceback.format_exc()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["maxrss_kb"] = usage.ru_maxrss
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer)
        report["spans"] = tracer.closed_spans()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if report["error"] is None and not any(report["exit_codes"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
