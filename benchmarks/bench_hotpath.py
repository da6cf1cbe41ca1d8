"""Hot-path microbench — standalone wrapper around :mod:`repro.bench`.

The same kernels ``python -m repro bench`` gates on (indexed flow
lookup, event dispatch, memoized classification), exposed both as
pytest-benchmark cases and as a standalone report writer.  The report is
named ``BENCH_HOTPATH_RUN.json`` — deliberately *not* the committed
``BENCH_HOTPATH.json`` baseline, which is only refreshed through
``python -m repro bench --write-baseline``.
"""

from repro.bench.gate import make_report
from repro.bench.hotpath import _build_flow_tables, run_hotpath


def test_hotpath_indexed_lookup_512(benchmark):
    indexed, _linear, keys = _build_flow_tables()
    key = keys[137]
    result = benchmark(indexed.resolve, key)
    assert result is not None
    benchmark.extra_info["entries"] = 512
    benchmark.extra_info["path"] = "indexed wildcard+exact table"


def test_hotpath_linear_lookup_512(benchmark):
    _indexed, linear, keys = _build_flow_tables()
    key = keys[137]
    result = benchmark(linear.resolve, key)
    assert result is not None
    benchmark.extra_info["entries"] = 512
    benchmark.extra_info["path"] = "reference linear scan"


def main(out_path="BENCH_HOTPATH_RUN.json", quick=False) -> dict:
    from common import write_report

    report = make_report(run_hotpath(quick=quick), quick=quick)
    write_report(out_path, report)
    return report


if __name__ == "__main__":
    from common import bench_output

    main(out_path=str(bench_output("BENCH_HOTPATH_RUN.json")))
