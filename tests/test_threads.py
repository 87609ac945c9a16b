"""BLAS thread pinning: one thread inside specal, the caller's counts after.

Every test skips where no OpenBLAS thread control is found (MKL, macOS
Accelerate, a numpy without a bundled OpenBLAS).
"""

import pytest

from specal import _blas, cli
from specal.errors import ParseError
from specal.simulate import _ordered_map


@pytest.fixture
def set_caller_threads():
    """Sets every pool to a count; puts the counts back after the test."""
    saved = _blas.thread_counts()
    if not saved:
        pytest.skip("no OpenBLAS thread control found")
    yield lambda count: _blas.set_thread_counts([count] * len(saved))
    _blas.set_thread_counts(saved)


def test_main_runs_one_thread_and_restores_caller_counts(set_caller_threads,
                                                         monkeypatch):
    set_caller_threads(2)
    pools = len(_blas.thread_counts())
    seen = []

    def command(args):
        seen.append(_blas.thread_counts())
        if args.out == "fail":
            raise ParseError("stub failure")
        return 0

    monkeypatch.setattr(cli, "_cmd_sep", command)
    sep = ["sep", "--truth", "t.csv", "--predictions", "p.csv", "--out"]
    assert cli.main([*sep, "ok"]) == 0
    assert _blas.thread_counts() == (2,) * pools
    assert cli.main([*sep, "fail"]) == 1
    assert _blas.thread_counts() == (2,) * pools
    assert seen == [(1,) * pools] * 2


def test_calibrate_bytes_do_not_depend_on_caller_threads(set_caller_threads,
                                                         tmp_path):
    data = tmp_path / "data"
    assert cli.main(["simulate", "--study", "dataset", "--samples", "20",
                     "--seed", "3", "--out-dir", str(data)]) == 0
    outputs = {}
    for count in (1, 2):
        set_caller_threads(count)
        out = tmp_path / str(count)
        out.mkdir()
        assert cli.main([
            "calibrate", "--spectra", str(data / "cal_spectra.csv"),
            "--concentrations", str(data / "cal_concentrations.csv"),
            "--method", "ols-ss", "--model-out", str(out / "model.json"),
            "--curves-out", str(out / "curves.csv")]) == 0
        assert _blas.thread_counts() == (count,) * len(_blas.thread_counts())
        outputs[count] = [(out / name).read_bytes()
                          for name in ("model.json", "curves.csv")]
    assert outputs[1] == outputs[2]


def test_study_workers_run_one_thread(set_caller_threads):
    set_caller_threads(2)
    pools = len(_blas.thread_counts())
    counts = _ordered_map(_blas.thread_counts, [()] * 2, jobs=2)
    assert counts == [(1,) * pools] * 2
