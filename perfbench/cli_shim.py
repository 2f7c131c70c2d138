"""Run the nilharm CLI under the tracer; the traced form of a cli-cold job.

    python cli_shim.py --spans FILE -- CLI-ARGS...

Behaves like `python -m nilharm.cli CLI-ARGS...` (same output, exit code
and tracebacks) and also writes the import time of nilharm.cli and the
spans of the invocation to FILE.
"""

import json
import sys
import time


def main():
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.exit("usage: cli_shim.py --spans FILE -- CLI-ARGS...")
    spans_path, cli_args = argv[1], argv[3:]

    start = time.perf_counter()
    import nilharm.cli
    import_s = time.perf_counter() - start

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = 0
    tracer.enabled = True
    try:
        return sys.modules["nilharm.cli"].main(cli_args)
    finally:
        tracer.enabled = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans()}, fh)


if __name__ == "__main__":
    sys.exit(main())
