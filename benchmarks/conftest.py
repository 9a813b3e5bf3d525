"""Shared benchmark helpers.

Every bench regenerates one table/figure of the paper: it runs the
experiment once inside ``benchmark.pedantic`` (deterministic, no warmup
noise), prints the paper-shaped rows/series, and writes them to
``benchmarks/out/<name>.txt`` so the output survives pytest's capture.

The paper's claims are checked apart from the run that makes the table:
each ``test_*_shape`` reads only the table under ``benchmarks/out/``
(:func:`table`, :func:`series`), as committed.  The tables are bit-exact
functions of the code and the seeds (any ``PYTHONHASHSEED``), so a run
that changes one shows as a diff against the committed file
(``make figures``).
"""

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def emit(report_dir, request):
    """Print a report block and persist it under the test's name."""

    def _emit(text: str) -> None:
        print()
        print(text)
        name = request.node.name.replace("/", "_")
        (report_dir / f"{name}.txt").write_text(text + "\n",
                                                encoding="utf-8")

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def table(name: str):
    """The rows of ``benchmarks/out/<name>.txt`` (its first table)."""
    # imported here: benchmarks/e2e's self-tests load this file too, and
    # run without the package on the path
    from repro.bench.reporting import parse_table
    return parse_table((OUT_DIR / f"{name}.txt").read_text(encoding="utf-8"))


def series(name: str):
    """The series of ``benchmarks/out/<name>.txt``: name -> values."""
    from repro.bench.reporting import parse_series
    return parse_series((OUT_DIR / f"{name}.txt").read_text(
        encoding="utf-8"))
