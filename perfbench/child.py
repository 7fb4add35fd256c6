"""Run one benchmark job in a fresh interpreter and report on stdout.

Usage: python3 perfbench/child.py '<job spec JSON>'

The spec names the qtk source directory, the job kind and its arguments,
and whether to trace.  The job's own output is captured; the last stdout
line is one JSON envelope with the time qtk became ready (time.monotonic,
comparable with the parent's clock), the exit code, the captured output,
any traceback, the row-reduction backend, the peak RSS and the trace record.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_job(kind: str, argv: list[str], out: io.StringIO) -> int:
    import qtk.cli as cli

    if kind == "validate":
        with contextlib.redirect_stdout(out):
            return cli.main(["validate", *argv])
    if kind == "quotient_algebra":
        from qtk import srbundle

        alg = srbundle.quotient_algebra(cli.resolve_instance(argv[0]).ring())
        out.write(json.dumps({"degrees": list(alg.degrees), "valid": alg.validate().ok}))
        return 0
    with contextlib.redirect_stdout(out):
        return cli.main(argv)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import qtk.cli  # noqa: F401  (import cost belongs to set-up)
    import qtk.kernels

    if not os.path.abspath(qtk.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"qtk imported from {qtk.cli.__file__}, not from {src}\n")
        return 3
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    out = io.StringIO()
    code, tb = None, None
    try:
        if tracer is not None:
            code = tracer.run(lambda: _run_job(spec["kind"], spec["argv"], out))
        else:
            code = _run_job(spec["kind"], spec["argv"], out)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to the parent as a failed job
        tb = traceback.format_exc()
    envelope = {
        "ready": ready, "code": code, "stdout": out.getvalue(),
        "traceback": tb, "backend": qtk.kernels.BACKEND,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.record() if tracer is not None else None,
    }
    sys.stdout.write("\n" + json.dumps(envelope) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
