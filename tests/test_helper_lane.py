"""The private step's helper lane: the bytes it gives, its errors, the
buffers it lets go of, and a forked child that steps on."""

import os
import signal
import sys
import threading
import weakref

import numpy as np
import pytest

from dpfedsim import (
    DpConfig,
    ModelSpec,
    NumericError,
    SampleBatch,
    SamplerPlan,
    clip_per_sample,
    init_params,
    make_mask,
    noisy_mean,
    partition_data,
    private_step,
    run_local,
)
from dpfedsim import dpsgd, federation
from dpfedsim.data import SyntheticDatasetSpec, make_dataset

RNG = np.random.default_rng

# trainable widths: WIDE all 4 423, gapped 4 355 (both odd, above the
# threshold), head 198; NARROW all 93, gapped 81, head 30
WIDE = ModelSpec("mlp", input_dim=64, output_dim=3, hidden_dim=65)
NARROW = ModelSpec("mlp", input_dim=6, output_dim=3, hidden_dim=9)
MASKS = {
    "all": ["hidden.weight", "hidden.bias", "head.weight", "head.bias"],
    "head": ["head.weight", "head.bias"],
    "gapped": ["hidden.weight", "head.weight"],
}


@pytest.fixture
def lane_on(monkeypatch):
    """Two lanes, whatever this host's affinity; the names of the functions
    handed over are listed (not the functions: a closure holds buffers)."""
    jobs = []
    hand_over = dpsgd._on_lane

    def counting(fn, *args):
        jobs.append(fn.__name__)
        return hand_over(fn, *args)

    monkeypatch.setattr(dpsgd, "_LANES", 2)
    monkeypatch.setattr(dpsgd, "_on_lane", counting)
    return jobs


def _shard(spec, samples=40, seed=0):
    data = make_dataset(
        SyntheticDatasetSpec("gaussian-blobs", spec.output_dim, samples, spec.input_dim, seed=seed)
    )
    (shard,) = partition_data(data, 1, "iid", seed=seed)
    return shard


def _local_update(spec, mask_name, sampler, optimizer, sigma):
    shard = _shard(spec)
    w = init_params(spec, 3)
    mask = make_mask(w.layout, MASKS[mask_name])
    plan = SamplerPlan(sampler, 8, shard.n_k, shard.rng_seed)
    dp = DpConfig(0.5, sigma, 0.1, optimizer=optimizer)
    update = run_local(spec, shard, w, mask, dp, plan, local_epochs=2, round_index=1)
    return mask.trainable_count, update.tau, update.deltas.tobytes()


@pytest.mark.parametrize("spec", [WIDE, NARROW], ids=["wide", "narrow"])
@pytest.mark.parametrize("mask_name", sorted(MASKS))
@pytest.mark.parametrize("sampler", ["shuffle", "poisson"])
def test_the_lane_changes_no_byte_of_a_local_run(spec, mask_name, sampler, lane_on, monkeypatch):
    for optimizer in ("sgd", "adam"):
        for sigma in (0.0, 0.8):
            lane_on.clear()
            on = _local_update(spec, mask_name, sampler, optimizer, sigma)
            handed = len(lane_on)
            with monkeypatch.context() as off:
                off.setattr(dpsgd, "_LANES", 1)
                assert _local_update(spec, mask_name, sampler, optimizer, sigma) == on
            assert len(lane_on) == handed  # nothing went to the lane with it off
            width = on[0]
            # a wide step hands over the clip's and the mean's first halves,
            # and the noise draw when there is noise; a narrow one nothing
            per_step = 3 if sigma else 2
            assert handed == (per_step * on[1] if width >= dpsgd._LANE_MIN_WIDTH else 0)


@pytest.mark.parametrize("width", [4095, 4096, 4097, 9001])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scaled_rows", [2, 40])
def test_clip_and_mean_halves_give_the_bytes_of_the_whole(
    width, order, scaled_rows, lane_on, monkeypatch
):
    # 64 rows, of which ``scaled_rows`` lie outside the ball: 2 takes the
    # copy-then-scale branch, 40 the broadcast multiply
    rows = RNG(width).normal(size=(64, width)) / np.sqrt(width)
    rows[:scaled_rows] *= 3.0
    grads = np.asarray(rows, order=order)
    clipped = clip_per_sample(grads, 1.5)
    means = [noisy_mean(clipped, sigma, 1.5, 77) for sigma in (0.0, 0.8)]
    assert len(lane_on) == (3 if width >= dpsgd._LANE_MIN_WIDTH else 0)
    monkeypatch.setattr(dpsgd, "_LANES", 1)
    assert clip_per_sample(grads, 1.5).tobytes() == clipped.tobytes()
    for sigma, mean in zip((0.0, 0.8), means):
        assert noisy_mean(clipped, sigma, 1.5, 77).tobytes() == mean.tobytes()


def _wide_step_inputs(nan_sample=None):
    shard = _shard(WIDE, samples=16, seed=4)
    inputs = shard.data.inputs.copy()
    if nan_sample is not None:
        inputs[nan_sample, 5] = np.nan
    batch = SampleBatch(inputs, shard.data.targets)
    w = init_params(WIDE, 2)
    return w, batch, make_mask(w.layout, MASKS["all"]), DpConfig(1.0, 0.8, 0.1)


def test_a_nan_gradient_names_its_sample_with_the_lane_on(lane_on):
    w, batch, mask, dp = _wide_step_inputs(nan_sample=6)
    with pytest.raises(NumericError, match="sample 6"):
        private_step(WIDE, w, batch, mask, dp, 11, {})
    assert lane_on == ["box_muller"]  # the draw ran beside the failing clip
    # and the lane serves the next step
    w, batch, mask, dp = _wide_step_inputs()
    assert np.isfinite(private_step(WIDE, w, batch, mask, dp, 11, {})).all()


def test_an_error_on_the_lane_is_raised_in_its_caller(lane_on):
    def failing():
        raise ValueError("raised on the lane")

    job = dpsgd._on_lane(failing)
    with pytest.raises(ValueError, match="raised on the lane"):
        job.result()
    assert dpsgd._on_lane(int, "7").result() == 7


def test_a_job_the_lane_has_not_started_runs_in_its_caller(lane_on):
    release = threading.Event()
    busy = dpsgd._on_lane(release.wait, 60)  # holds the lane
    queued = dpsgd._on_lane(threading.current_thread)
    try:
        assert queued.result() is threading.current_thread()
    finally:
        release.set()
    assert busy.result() is True
    # the lane skips the job it finds taken and serves the next one
    served = threading.Event()
    job = dpsgd._on_lane(served.set)
    assert served.wait(timeout=60)
    job.result()


def test_the_lane_keeps_no_workspace_buffer_alive(lane_on, monkeypatch):
    refs = []
    step = federation.private_step

    def recording(spec, params, batch, mask, dp, noise_seed, work):
        grad = step(spec, params, batch, mask, dp, noise_seed, work)
        refs.extend(weakref.ref(work[key]) for key in ("grads", "clipped", "normals"))
        return grad

    monkeypatch.setattr(federation, "private_step", recording)
    _local_update(WIDE, "all", "shuffle", "sgd", 0.8)
    assert refs and lane_on
    assert [ref() for ref in refs] == [None] * len(refs)


def test_the_step_starts_one_lane_thread(lane_on):
    w, batch, mask, dp = _wide_step_inputs()
    for seed in range(3):
        private_step(WIDE, w, batch, mask, dp, seed, {})
    lanes = [t for t in threading.enumerate() if t.name == "dpfedsim-lane"]
    assert len(lanes) == 1 and lanes[0].daemon


def test_steps_from_several_threads_share_one_lane(lane_on):
    # more callers than cores, switching threads every 10 us: each step must
    # still give its own bytes, and the lane must be started once
    w, batch, mask, dp = _wide_step_inputs()
    expected = {s: private_step(WIDE, w, batch, mask, dp, s, {}).tobytes() for s in range(4)}
    got = {}

    def steps(seed):
        work = {}
        got[seed] = [private_step(WIDE, w, batch, mask, dp, seed, work).tobytes() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=steps, args=(seed,)) for seed in expected]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == {seed: [expected[seed]] * 5 for seed in expected}
    assert len([t for t in threading.enumerate() if t.name == "dpfedsim-lane"]) == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_the_lane_count_follows_the_cpus_this_process_may_use():
    assert dpsgd._LANES == min(2, len(os.sched_getaffinity(0)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_forked_child_completes_a_wide_step(lane_on):
    w, batch, mask, dp = _wide_step_inputs()
    expected = private_step(WIDE, w, batch, mask, dp, 5, {}).tobytes()
    assert lane_on  # the parent's lane is running when it forks
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if its own lane gives the same bytes
        status = 1
        try:
            signal.alarm(60)  # a lane that never answers kills the child
            got = private_step(WIDE, w, batch, mask, dp, 5, {}).tobytes()
            status = 0 if got == expected else 2
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
