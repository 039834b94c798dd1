"""Property-based tests for the reduction circuit's paper claims.

For arbitrary streams of arbitrary-size sets, the single-adder circuit
must (1) compute correct sums, (2) never stall the producer, (3) keep
buffer occupancy within 2α², (4) finish within Σsᵢ + 2α² cycles, and
(5) issue exactly Σ(sᵢ − 1) additions.

The recorded schedule (:func:`repro.sim.fast.reduction_program`)
claims *byte-identical* behavior — same value bits per set id, same
emission cycles, same flush-tail length — on every arrival pattern the
cycle circuit accepts, bubbles included; the equivalence properties at
the bottom are that proof.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reduction.analysis import latency_bound, run_reduction
from repro.reduction.single_adder import SingleAdderReduction
from repro.sim.fast import (PAT_BUBBLE, PAT_LAST, PAT_VALUE,
                            back_to_back_pattern, reduction_program)

alphas = st.sampled_from([2, 3, 4, 5, 8, 14])


@st.composite
def workloads(draw):
    """(alpha, list of sets) with adversarial size distribution."""
    alpha = draw(alphas)
    n_sets = draw(st.integers(1, 24))
    sizes = draw(st.lists(
        st.one_of(
            st.integers(1, 3),
            st.integers(max(1, alpha - 1), alpha + 1),
            st.integers(1, 2 * alpha),
            st.sampled_from([1, alpha, alpha * alpha, alpha * alpha + 1]),
        ),
        min_size=n_sets, max_size=n_sets,
    ))
    sets = [
        [draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
         for _ in range(s)]
        for s in sizes
    ]
    return alpha, sets


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_sums_are_correct(workload):
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    for got, values in zip(run.results_by_set(), sets):
        want = math.fsum(values)
        tol = 1e-9 * max(1.0, sum(abs(v) for v in values))
        assert abs(got - want) <= tol, (alpha, len(values), got, want)


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_never_stalls_producer(workload):
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    assert run.stall_cycles == 0


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_buffer_occupancy_bounded(workload):
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    run_reduction(circuit, sets)
    assert circuit.stats.max_buffer_occupancy <= 2 * alpha * alpha


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_total_latency_bound(workload):
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    sizes = [len(s) for s in sets]
    assert run.total_cycles < latency_bound(sizes, alpha)


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_exact_addition_count(workload):
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    run_reduction(circuit, sets)
    assert circuit.stats.adder_issues == sum(len(s) - 1 for s in sets)


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_one_result_per_set_with_matching_ids(workload):
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    run_reduction(circuit, sets)
    ids = sorted(r.set_id for r in circuit.results)
    assert ids == list(range(len(sets)))


@settings(max_examples=100, deadline=None)
@given(workloads())
def test_matches_numpy_reference(workload):
    """The circuit's sums agree with ``np.sum`` over every set —
    the reference the runtime's fault-plane verification also uses."""
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    for got, values in zip(run.results_by_set(), sets):
        want = float(np.sum(np.asarray(values, dtype=np.float64)))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(values))))
        assert abs(got - want) <= tol


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1))
def test_random_interleaving_matches_reference_and_bound(workload,
                                                         shuffle_seed):
    """Sets delivered in a shuffled order with random producer bubbles
    still reduce to the NumPy reference, and the total cycle count
    stays under the paper's Σsᵢ + 2α² bound shifted by the idle
    cycles we inserted."""
    import random

    alpha, sets = workload
    rnd = random.Random(shuffle_seed)
    order = list(range(len(sets)))
    rnd.shuffle(order)
    circuit = SingleAdderReduction(alpha=alpha)
    bubbles = 0
    for set_id in order:
        values = sets[set_id]
        for index, value in enumerate(values):
            while rnd.random() < 0.25:
                circuit.cycle()  # producer hiccup
                bubbles += 1
            assert circuit.cycle(value, index == len(values) - 1)
    circuit.flush()
    # set ids are assigned in arrival order, so result i is sets[order[i]]
    got = [r.value for r in sorted(circuit.results,
                                   key=lambda r: r.set_id)]
    assert len(got) == len(sets)
    for value, set_id in zip(got, order):
        values = np.asarray(sets[set_id], dtype=np.float64)
        want = float(np.sum(values))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(values))))
        assert abs(value - want) <= tol
    sizes = [len(s) for s in sets]
    assert circuit.stats.cycles < latency_bound(sizes, alpha) + bubbles


@settings(max_examples=60, deadline=None)
@given(workloads(),
       st.lists(st.integers(0, 5), min_size=0, max_size=30))
def test_input_gaps_do_not_break_correctness(workload, gaps):
    """Bubbles between inputs (producer hiccups) must be harmless."""
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    gap_iter = iter(gaps + [0] * 10_000)
    for values in sets:
        for index, value in enumerate(values):
            for _ in range(next(gap_iter)):
                circuit.cycle()  # bubble
            assert circuit.cycle(value, index == len(values) - 1)
    circuit.flush()
    got = [r.value for r in sorted(circuit.results, key=lambda r: r.set_id)]
    for value, values in zip(got, sets):
        want = math.fsum(values)
        tol = 1e-9 * max(1.0, sum(abs(v) for v in values))
        assert abs(value - want) <= tol


# ----------------------------------------------------------------------
# recorded-schedule equivalence (repro.sim.fast.reduction_program)
# ----------------------------------------------------------------------
def _back_to_back(sets):
    """One producer cycle per value: ``(value, closes its set)``."""
    return [(value, index == len(values) - 1)
            for values in sets for index, value in enumerate(values)]


def _encode(arrivals):
    """The arrival pattern and streamed values of ``arrivals`` (None
    for a producer bubble, else ``(value, last)``)."""
    pattern = bytes(PAT_BUBBLE if event is None
                    else PAT_LAST if event[1] else PAT_VALUE
                    for event in arrivals)
    values = [event[0] for event in arrivals if event is not None]
    return pattern, np.asarray(values, dtype=np.float64)


def _assert_byte_identical(alpha, arrivals):
    """Stepping the circuit through ``arrivals`` and replaying their
    recorded schedule give bitwise-equal sums per set id, the same
    emission cycle per set and the same flush tail."""
    circuit = SingleAdderReduction(alpha=alpha)
    for event in arrivals:
        if event is None:
            circuit.cycle()
        else:
            assert circuit.cycle(*event)
    flush = circuit.flush()
    pattern, values = _encode(arrivals)
    program = reduction_program(pattern, alpha)
    assert program.flush_cycles == flush
    assert ([(set_id, cycle) for set_id, _, cycle in program.emits]
            == [(r.set_id, r.cycle) for r in circuit.results])
    sums = program.apply(values)
    assert len(sums) == len(circuit.results)
    for want in circuit.results:
        assert (sums[want.set_id].tobytes()
                == np.float64(want.value).tobytes()), (
            want.set_id, want.value, sums[want.set_id])


@settings(max_examples=100, deadline=None)
@given(workloads())
def test_fast_reduction_byte_identical_back_to_back(workload):
    """Back-to-back delivery (the dense kernels' pattern): the
    vectorized replay is indistinguishable from the cycle circuit."""
    alpha, sets = workload
    _assert_byte_identical(alpha, _back_to_back(sets))


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1))
def test_fast_reduction_byte_identical_random_interleaving(
        workload, shuffle_seed):
    """Random set order + random producer bubbles: still bitwise
    equal, including every emission cycle number."""
    import random

    alpha, sets = workload
    rnd = random.Random(shuffle_seed)
    order = list(range(len(sets)))
    rnd.shuffle(order)
    arrivals = []
    for set_id in order:
        values = sets[set_id]
        for index, value in enumerate(values):
            while rnd.random() < 0.25:
                arrivals.append(None)
            arrivals.append((value, index == len(values) - 1))
    _assert_byte_identical(alpha, arrivals)


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_fast_reduction_matches_numpy_reference(workload):
    """Independent of the cycle circuit, the vectorized sums agree
    with NumPy over every set."""
    alpha, sets = workload
    pattern, streamed = _encode(_back_to_back(sets))
    got = reduction_program(pattern, alpha).apply(streamed)
    assert len(got) == len(sets)
    for value, values in zip(got, sets):
        arr = np.asarray(values, dtype=np.float64)
        want = float(np.sum(arr))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(arr))))
        assert abs(value - want) <= tol


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_back_to_back_pattern_is_the_dense_arrival(workload):
    """``back_to_back_pattern(sizes)`` encodes exactly what driving
    the circuit value-per-cycle produces."""
    _, sets = workload
    sizes = [len(s) for s in sets]
    pattern, _ = _encode(_back_to_back(sets))
    assert pattern == back_to_back_pattern(sizes)
