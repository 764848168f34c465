"""The BiLSTM projects block b + 1 of its input on a helper while the
calling thread runs block b's time loop, in training as in eval: each
forward opens a helper of its own, which starts only while BLAS runs on
one thread, and joins it before it returns. The outputs, input gradients
and weight gradients are bit-identical to a sequential per-block
reference whatever the CPU count and BLAS thread count; a failing job
reaches the caller and leaves no thread and no layer cache."""

import threading

import numpy as np
import pytest
from backward_reference import bilstm_reference
from conftest import assert_same_bits, set_cpus

from ddkseg import nn
from ddkseg.nn import lstm as lstm_module
from ddkseg.nn import threads
from ddkseg.nn.lstm import PROJ_BLOCK

T_LENS = [0, 1, PROJ_BLOCK - 1, PROJ_BLOCK, PROJ_BLOCK + 1, 1000]


_QUERY = threads.blas_threads  # the real query, which set_cpus replaces


def _blas(monkeypatch, reported):
    """Make the BLAS query report `reported` threads; "missing" looks up
    a symbol no library exports, so the real query runs and finds none."""
    if reported == "missing":
        monkeypatch.setattr(threads, "blas_threads", _QUERY)
        monkeypatch.setattr(threads, "BLAS_THREADS_SYMBOL", "no_such_blas_symbol_")
    else:
        monkeypatch.setattr(threads, "blas_threads", lambda: reported)


def _counted_threads(monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    return started


def _case(t_len, batch=2, seed=0):
    rng = np.random.default_rng(seed + t_len)
    lstm = nn.BiLSTM(6, 5, rng=rng, dtype=np.float32)
    x = rng.standard_normal((batch, t_len, 6)).astype(np.float32)
    dout = rng.standard_normal((batch, t_len, 10)).astype(np.float32)
    return lstm, x, dout


def _check_against_reference(monkeypatch, t_len, cpus, reported, train):
    set_cpus(monkeypatch, cpus)
    _blas(monkeypatch, reported)
    started = _counted_threads(monkeypatch)
    lstm, x, dout = _case(t_len)
    want_out, want_dx, want_grads = bilstm_reference(lstm, x, dout)
    before = x.copy()
    out = lstm.forward(x, train=train)
    assert_same_bits(out, want_out)
    assert_same_bits(x, before)
    # A helper only where it has a block to project, BLAS runs on one
    # thread and a second CPU is usable; joined before forward returns.
    assert len(started) == int(reported == 1 and cpus > 1 and t_len > PROJ_BLOCK)
    assert not any(thread.is_alive() for thread in started)
    assert lstm._jobs is None
    if not train:
        assert lstm._cache is None
        return
    assert_same_bits(lstm.backward(dout), want_dx)
    for name, want in want_grads.items():
        assert_same_bits(lstm.grads[name], want)


@pytest.mark.parametrize("reported", [1, 2, "missing"])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("t_len", T_LENS)
def test_eval_forward_matches_sequential_reference(monkeypatch, t_len, cpus, reported):
    _check_against_reference(monkeypatch, t_len, cpus, reported, train=False)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("t_len", T_LENS)
def test_train_forward_and_backward_match_sequential_reference(monkeypatch, t_len, cpus):
    _check_against_reference(monkeypatch, t_len, cpus, 1, train=True)


def test_helper_projects_every_block_after_the_first(monkeypatch):
    # Block 0 is projected on the calling thread, blocks 1 to 15 (T = 1000)
    # on the helper, each once, in order, before its own steps run.
    set_cpus(monkeypatch, 2)
    lstm, x, _ = _case(1000)
    calls = []
    original = lstm_module._project

    def _project(xs, w_ih, out, dest):
        calls.append((threading.current_thread() is threading.main_thread(), xs.shape[1]))
        original(xs, w_ih, out, dest)

    monkeypatch.setattr(lstm_module, "_project", _project)
    lstm.forward(x)
    sizes = [PROJ_BLOCK] * (1000 // PROJ_BLOCK) + [1000 % PROJ_BLOCK]
    assert calls == [(True, PROJ_BLOCK)] * 2 + [(False, k) for k in sizes[1:] for _ in range(2)]


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_job_reaches_the_caller(monkeypatch, cpus, train):
    set_cpus(monkeypatch, cpus)
    lstm, x, _ = _case(1000)
    calls = []
    original = lstm_module._project

    def _project(*args):
        calls.append(threading.current_thread())
        if len(calls) == 7:  # block 3's forward direction
            raise RuntimeError("projection failed")
        original(*args)

    monkeypatch.setattr(lstm_module, "_project", _project)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="projection failed"):
        lstm.forward(x, train=train)
    assert threading.active_count() == before
    assert (calls[-1] is threading.main_thread()) == (cpus == 1)
    assert lstm._cache is None
    monkeypatch.setattr(lstm_module, "_project", original)
    assert np.isfinite(lstm.forward(x)).all()


def test_failed_eval_forward_drops_an_earlier_cache(monkeypatch):
    lstm, x, _ = _case(PROJ_BLOCK + 1)
    lstm.forward(x, train=True)
    assert lstm._cache is not None

    def _project(*args):
        raise RuntimeError("projection failed")

    monkeypatch.setattr(lstm_module, "_project", _project)
    with pytest.raises(RuntimeError, match="projection failed"):
        lstm.forward(x)
    assert lstm._cache is None


def test_blas_query_reports_a_count_or_none(monkeypatch):
    reported = threads.blas_threads()
    assert reported is None or (type(reported) is int and reported >= 1)
    monkeypatch.setattr(threads, "BLAS_THREADS_SYMBOL", "no_such_blas_symbol_")
    assert threads.blas_threads() is None
