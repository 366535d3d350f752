"""Run one dirachl CLI command with spans and write, as JSON, the self
seconds per span name ("self") and the heap peaks of the memory-tracked
spans ("peak_bytes").  Usage: traced_cli.py SPAN_FILE <dirachl cli args>."""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from dirachl import cli  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        code = cli.main(argv)
    with open(span_file, "w") as fh:
        json.dump({"self": tracer.totals(), "peak_bytes": tracer.peak_bytes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
