"""Run one radseries CLI command with a span around every traced call.

    python bench/traced_cli.py SPANS_JSON ARGS...

ARGS are the radseries command-line arguments.  Output and exit code are the
CLI's own; the spans are written to SPANS_JSON when the command ends.
"""

import json
import sys

from spans import Tracer, dump_spans, instrument


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from radseries import cli
    instrument(tracer)
    with tracer.span("cli.main"):
        rc = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump(dump_spans(tracer.spans), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
