"""Run one dpsketch CLI command in-process with layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- DPSKETCH_ARGS...

Behaves like ``python -m dpsketch.cli DPSKETCH_ARGS...`` (same stdout,
stderr and exit code) and writes the spans to SPANS_JSON at exit.
"""

import json
import sys
import time


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- ARGS...")
    start = time.perf_counter()
    import dpsketch.cli  # a fresh interpreter pays the whole import here

    from tracing import Tracer, install

    tracer = Tracer()
    tracer.record("cli.import", start, time.perf_counter())
    install(tracer)
    try:
        return tracer.wrap("cli.main", dpsketch.cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
