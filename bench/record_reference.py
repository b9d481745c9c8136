"""Record the cold-cli reference: each shipped config's envelope from the CLI.

    python3 bench/record_reference.py

Writes bench/reference/cold_cli.json.gz (results and grids to 12 significant
digits, ``duration_s`` dropped).  Run it only at a commit whose output is
known to be right; the benchmark's cold-cli check compares against it.
"""

import gzip
import json
import tempfile
from pathlib import Path

import run
import workloads


def main():
    records = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for op in workloads.cold_cli_ops(run.ROOT, run.child_env(), Path(tmp), traced=False,
                                         reference={}):
            child = op.run()
            if child.returncode != 0:
                raise SystemExit(f"{op.name}: exit {child.returncode}\n{child.stderr}")
            envelope = json.loads(child.out_path.read_text())
            records[op.name] = workloads.reference_record(envelope)
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    workloads.REFERENCE.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {workloads.REFERENCE} ({workloads.REFERENCE.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
