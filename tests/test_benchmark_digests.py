"""The benchmark's recorded reports still come out byte for byte.

perfbench/digests.json holds the SHA-256 of every benchmark job's report.
These tests run benchmark jobs through cli.main in-process and check each
with perfbench's own jobs.verify: exit code, known answer and digest. So a
report that drifts fails here, not only in a benchmark run. Every template
runs all jobs.POOL variants: each variant's seed moves the sample points at
which the coframe guard ranks the coframe and the derived flag is ranked,
and the fibers the thinness probe draws, and each flag-* variant draws its
own document and point, whose flag is read off the restricted grid.
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


def _problems(workload, variants, tmp_path, prefixes=("",)):
    problems = []
    for template in jobs.templates(workload):
        if not template.name.startswith(prefixes):
            continue
        for variant in variants:
            job = template.job(variant)
            if job.doc is not None:
                path = tmp_path / ("%s-%d.nh" % (template.name, variant))
                path.write_text(job.doc, encoding="utf-8")
                job.argv = [str(path) if a == jobs.DOC else a for a in job.argv]
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(job.argv)
            problems += jobs.verify(job, code, out.getvalue(), DIGESTS)
    return problems


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_variant_zero_of_every_template_matches_its_digest(workload, tmp_path):
    assert _problems(workload, [0], tmp_path) == []


def test_every_mni_check_variant_matches_its_digest(tmp_path):
    # variant 0 is checked above
    assert _problems("mni-check", range(1, jobs.POOL), tmp_path) == []


def test_every_probe_sweep_variant_matches_its_digest(tmp_path):
    # variant 0 is checked above
    assert _problems("probe-sweep", range(1, jobs.POOL), tmp_path) == []


def test_every_flag_dlo_sampling_variant_matches_its_digest(tmp_path):
    # variant 0 is checked above
    assert _problems("flag-dlo", range(1, jobs.POOL), tmp_path, ("example-", "dlo-")) == []


def test_every_flag_point_variant_matches_its_digest(tmp_path):
    # variant 0 is checked above
    assert _problems("flag-dlo", range(1, jobs.POOL), tmp_path, ("flag-",)) == []
