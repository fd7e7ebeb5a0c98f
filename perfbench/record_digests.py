"""Record the report digest of every job any benchmark seed can produce.

Run at the commit whose reports are the reference, from the repository root:

    python3 perfbench/record_digests.py

Each job must first meet its exit code and known answer; a job that does
not is reported and nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import jobs as joblist
from workload import load_cli, run_job, write_documents


def main():
    cli = load_cli()
    digests = {}
    problems = []
    for workload in joblist.WORKLOADS:
        for template in joblist.templates(workload):
            batch = [template.job(v) for v in range(joblist.POOL)]
            write_documents(workload, batch)
            for job in batch:
                code, text = run_job(cli, job.argv)
                digests[job.key] = joblist.report_digest(text)
                problems += joblist.verify(job, code, text, digests)
            print("%s: %d jobs" % (template.name, len(batch)), file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = Path(__file__).parent / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(digests), path), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
