"""Traced ``patrain`` CLI process for the cli_cold workload.

    python3 perfbench/traced_child.py SPANS_JSON ARGV...

Imports patrain, installs the benchmark's wrappers, runs ``patrain.cli.main``
with ARGV inside a ``cli.main`` span and writes the spans to SPANS_JSON for the
parent to collect.  Exits with the CLI's exit code.
"""

import json
import sys

import spans


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import patrain
    import patrain.cli

    tracer = spans.Tracer()
    code = 1
    try:
        with spans.installed(tracer, patrain, op=0), tracer.span("cli.main"):
            code = patrain.cli.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump([span.as_row() for span in tracer.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
