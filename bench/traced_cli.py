"""One condibeam CLI command with timing wrappers installed; spans saved as JSON.

    python bench/traced_cli.py <spans.json> <condibeam cli arguments...>

The cold-cli workload's traced passes run this in place of
``python -m condibeam.cli`` (with ``src`` on PYTHONPATH).
"""

import json
import sys

import condibeam.cli

import tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return condibeam.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(spans.take(), fh)


if __name__ == "__main__":
    sys.exit(main())
