"""Every benchmark input gives its committed exit code and report bytes.

The inputs are built by ``perfbench/workloads.py`` at seeds 3 and 29 and
run once each through ``cli.main``.  ``tests/golden/workloads-sha256.txt``
holds one line per input: workload, seed, input name, exit code and the
sha256 of the report (of no bytes when the run writes none), the figures
``perfbench/run.py`` prints as its ``report ... sha256=`` lines.  A change
that moves report bits on purpose writes the file again with
``python tests/test_workload_reports.py`` and says why.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from jetstress.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "workloads-sha256.txt"
SEEDS = (3, 29)

sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)


def report_lines(workdir: Path):
    """One line per benchmark input at every seed, in workload and input order."""
    lines = []
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            inputs_dir = workdir / f"{name}-{seed}"
            inputs_dir.mkdir()
            for item in build(seed, inputs_dir):
                report = inputs_dir / "report.jsonl"
                report.unlink(missing_ok=True)
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(item.argv(report))
                data = report.read_bytes() if report.exists() else b""
                lines.append(f"{name} {seed} {item.name} exit={code} "
                             f"sha256={hashlib.sha256(data).hexdigest()}")
    return lines


def test_every_workload_input_gives_its_committed_report(tmp_path):
    assert report_lines(tmp_path) == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text("\n".join(report_lines(Path(scratch))) + "\n", encoding="utf-8")
