"""The benchmark's recorded reports still come out byte for byte.

perfbench/digests.json holds the SHA-256 of every benchmark job's report.
This test runs variant 0 of each job template through cli.main in-process
and checks it with perfbench's own jobs.verify: exit code, known answer and
digest. So a report that drifts fails here, not only in a benchmark run.
Nothing under perfbench/ is written.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nonholonomy import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
jobs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobs)
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_variant_zero_of_every_template_matches_its_digest(workload, tmp_path):
    problems = []
    for template in jobs.templates(workload):
        job = template.job(0)
        if job.doc is not None:
            path = tmp_path / ("%s.nh" % template.name)
            path.write_text(job.doc, encoding="utf-8")
            job.argv = [str(path) if a == jobs.DOC else a for a in job.argv]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(job.argv)
        problems += jobs.verify(job, code, out.getvalue(), DIGESTS)
    assert problems == []
