"""Unit tests for the paper's single-adder reduction circuit."""

import dataclasses
import hashlib
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reduction.analysis import latency_bound, run_reduction
from repro.reduction.single_adder import SingleAdderReduction


class TestStructure:
    def test_one_adder(self):
        assert SingleAdderReduction(alpha=14).num_adders == 1

    def test_two_alpha_squared_buffers(self):
        c = SingleAdderReduction(alpha=14)
        assert c.buffer_words == 2 * 14 * 14

    def test_alpha_must_cover_pipeline(self):
        with pytest.raises(ValueError):
            SingleAdderReduction(alpha=1)

    def test_initially_idle(self):
        c = SingleAdderReduction(alpha=4)
        assert not c.busy()
        assert c.occupancy == 0


class TestSingleSets:
    def test_single_value_set(self):
        c = SingleAdderReduction(alpha=4)
        run = run_reduction(c, [[42.0]])
        assert run.results_by_set() == [42.0]

    def test_small_set(self):
        c = SingleAdderReduction(alpha=4)
        run = run_reduction(c, [[1.0, 2.0, 3.0]])
        assert run.results_by_set() == [6.0]

    def test_set_equal_to_alpha(self):
        c = SingleAdderReduction(alpha=4)
        run = run_reduction(c, [[1.0, 2.0, 3.0, 4.0]])
        assert run.results_by_set() == [10.0]

    def test_set_larger_than_alpha_folds(self):
        c = SingleAdderReduction(alpha=4)
        values = [float(i) for i in range(1, 11)]
        run = run_reduction(c, [values])
        assert run.results_by_set() == [55.0]

    def test_set_much_larger_than_alpha_squared(self):
        alpha = 4
        c = SingleAdderReduction(alpha=alpha)
        values = [1.0] * (10 * alpha * alpha)
        run = run_reduction(c, [values])
        assert run.results_by_set() == [float(len(values))]

    def test_negative_values(self):
        c = SingleAdderReduction(alpha=3)
        run = run_reduction(c, [[1.5, -2.5, 4.0, -3.0]])
        assert run.results_by_set() == [0.0]


class TestMultipleSets:
    def test_two_sets_of_different_sizes(self):
        c = SingleAdderReduction(alpha=4)
        run = run_reduction(c, [[1.0] * 7, [2.0] * 3])
        assert run.results_by_set() == [7.0, 6.0]

    def test_many_singleton_sets(self):
        c = SingleAdderReduction(alpha=4)
        sets = [[float(i)] for i in range(50)]
        run = run_reduction(c, sets)
        assert run.results_by_set() == [float(i) for i in range(50)]

    def test_results_carry_set_ids(self):
        c = SingleAdderReduction(alpha=3)
        run_reduction(c, [[1.0], [2.0, 2.0], [3.0]])
        ids = sorted(r.set_id for r in c.results)
        assert ids == [0, 1, 2]

    def test_back_to_back_mvm_workload(self):
        # The Level-2 use case: n sets of n/k values each.
        c = SingleAdderReduction(alpha=14)
        sets = [[1.0] * 16 for _ in range(64)]
        run = run_reduction(c, sets)
        assert run.results_by_set() == [16.0] * 64
        assert run.stall_cycles == 0

    def test_arbitrary_sizes_no_power_of_two_restriction(self):
        # The FCCM'05 predecessor requires power-of-two sizes; this
        # circuit does not (its headline improvement).
        c = SingleAdderReduction(alpha=5)
        sizes = [3, 7, 1, 13, 6, 9, 2, 31]
        sets = [[1.0] * s for s in sizes]
        run = run_reduction(c, sets)
        assert run.results_by_set() == [float(s) for s in sizes]


class TestPaperProperties:
    def test_no_input_stalls(self):
        c = SingleAdderReduction(alpha=6)
        sets = [[1.0] * s for s in (6, 6, 6, 6, 6, 6, 1, 1, 1, 36, 2)]
        run = run_reduction(c, sets)
        assert run.stall_cycles == 0
        assert c.stats.input_stall_cycles == 0

    def test_latency_bound(self):
        alpha = 5
        c = SingleAdderReduction(alpha=alpha)
        sizes = [4, 9, 1, 25, 3, 5, 5, 5, 5, 5, 2]
        sets = [[1.0] * s for s in sizes]
        run = run_reduction(c, sets)
        assert run.total_cycles < latency_bound(sizes, alpha)

    def test_buffer_never_exceeds_two_alpha_squared(self):
        alpha = 4
        c = SingleAdderReduction(alpha=alpha)
        sets = [[1.0] * s for s in [alpha] * alpha + [1] * (alpha * alpha)]
        run_reduction(c, sets)
        assert c.stats.max_buffer_occupancy <= 2 * alpha * alpha

    def test_adder_utilization_accounts_all_additions(self):
        # Reducing p sets of sizes s_i needs exactly Σ(s_i − 1) adds.
        c = SingleAdderReduction(alpha=4)
        sizes = [5, 1, 8, 3]
        run_reduction(c, [[1.0] * s for s in sizes])
        assert c.stats.adder_issues == sum(s - 1 for s in sizes)

    def test_collision_free_adder_single_issue_per_cycle(self):
        # adder_issues can never exceed elapsed cycles.
        c = SingleAdderReduction(alpha=4)
        run_reduction(c, [[1.0] * 9, [2.0] * 17])
        assert c.stats.adder_issues <= c.stats.cycles


class TestExactMode:
    def test_exact_softfloat_matches_native(self):
        sets = [[0.1, 0.2, 0.3, 0.7], [1e-9, 1.0, -1.0]]
        native = run_reduction(SingleAdderReduction(alpha=3), sets)
        exact = run_reduction(SingleAdderReduction(alpha=3, exact=True), sets)
        assert native.results_by_set() == exact.results_by_set()


class TestFlush:
    def test_flush_empties_circuit(self):
        c = SingleAdderReduction(alpha=4)
        for value, last in [(1.0, False), (2.0, True)]:
            c.cycle(value, last)
        c.flush()
        assert not c.busy()
        assert len(c.results) == 1

    def test_flush_watchdog(self):
        c = SingleAdderReduction(alpha=4)
        c.cycle(1.0, False)  # open set never closed
        with pytest.raises(Exception, match="drain"):
            c.flush(max_cycles=100)

    def test_result_cycle_monotonic_per_input_order(self):
        c = SingleAdderReduction(alpha=3)
        run_reduction(c, [[1.0] * 4, [2.0] * 4, [3.0] * 4])
        cycles = [r.cycle for r in c.results]
        assert cycles == sorted(cycles)


# ----------------------------------------------------------------------
# golden digests of the controller
# ----------------------------------------------------------------------
def _value(i):
    """Deterministic non-integer operand: the association order shows
    in the sum's bits."""
    return ((i * 7919 + 13) % 1009 - 504) / 1013


def _golden_sizes(alpha):
    """Edge set sizes, long folds, then runs that force bank swaps
    and several closed sets with the same pending work."""
    return ([1, alpha - 1, alpha, alpha + 1, alpha * alpha,
             alpha * alpha + 1, 3 * alpha * alpha + 5, 7 * alpha + 2]
            + [alpha] * (2 * alpha + 1) + [1] * alpha
            + [2, 3] * (2 * alpha) + [alpha + 1] * alpha)


def _golden_feed(alpha, bubbles):
    """The per-cycle feed: ``None`` for a producer bubble, else
    ``(value, closes its set)``.  With ``bubbles`` a bubble precedes
    every value whose index is 3 mod 5, and α bubbles every 7th set."""
    feed = []
    index = 0
    for set_no, size in enumerate(_golden_sizes(alpha)):
        if bubbles and set_no % 7 == 6:
            feed.extend([None] * alpha)
        for j in range(size):
            if bubbles and index % 5 == 3:
                feed.append(None)
            feed.append((_value(index), j == size - 1))
            index += 1
    return feed


def _observed_digest(circuit, flushed):
    """sha256 over each result's (set id, value bits, cycle) in
    emission order, every ``ReductionStats`` field and what
    ``flush()`` returned."""
    h = hashlib.sha256()
    for res in circuit.results:
        h.update(struct.pack("<qdq", res.set_id, res.value, res.cycle))
    for field in dataclasses.fields(circuit.stats):
        h.update(field.name.encode())
        h.update(repr(getattr(circuit.stats, field.name)).encode())
    h.update(repr(flushed).encode())
    return h.hexdigest()


def _step_each(circuit, feed):
    """Drive ``feed`` one ``cycle()`` per entry, re-offering a stalled
    value on the next cycle, then flush."""
    for entry in feed:
        if entry is None:
            circuit.cycle()
        else:
            while not circuit.cycle(*entry):
                pass
    return circuit.flush()


def _run_chunks(circuit, feed, bounds=()):
    """Drive ``feed`` through ``run`` in chunks split at ``bounds``,
    re-offering a stalled value in the next call, then flush."""
    pos = 0
    for end in sorted(bounds) + [len(feed)]:
        while pos < end:
            pos += circuit.run(feed[pos:end])
    return circuit.flush()


def _one_lane_per_bank(circuit):
    """Shrink each bank to one α-word lane so arrivals stall."""
    circuit._bank_free = [circuit.alpha, circuit.alpha]
    circuit.buffer_words = 2 * circuit.alpha
    return circuit


#: (α, drain policy, producer bubbles, one lane per bank) → digest,
#: recorded with the per-cycle controller before it became one loop.
GOLDEN = {
    (2, 'most-work', False, False):
        "95d2a9945343fd4f5c18b82e200d1ddad00e891ec792d8829b831e0a42af971e",
    (2, 'most-work', False, True):
        "42115bae629f5339e8bb26d3ac8921bf3c3cba3f7aab23e9ba826fc9c8f5bc22",
    (2, 'most-work', True, False):
        "8aca54b42315bbd2b65e5ce89d76d90d2493e00a4d05ffc0c6f6e762561d1fa7",
    (2, 'most-work', True, True):
        "12e1cf02eaa7c60051557bc7abb3ec652e87410b2ddebe625fe10346b5d3b415",
    (2, 'fifo', False, False):
        "95d2a9945343fd4f5c18b82e200d1ddad00e891ec792d8829b831e0a42af971e",
    (2, 'fifo', False, True):
        "42115bae629f5339e8bb26d3ac8921bf3c3cba3f7aab23e9ba826fc9c8f5bc22",
    (2, 'fifo', True, False):
        "8aca54b42315bbd2b65e5ce89d76d90d2493e00a4d05ffc0c6f6e762561d1fa7",
    (2, 'fifo', True, True):
        "12e1cf02eaa7c60051557bc7abb3ec652e87410b2ddebe625fe10346b5d3b415",
    (3, 'most-work', False, False):
        "dba4d11fe166e3ab6442cc6edce3a44bd44ffbb2217849fb45bfaf8e65de1a52",
    (3, 'most-work', False, True):
        "b3cb61c45b0e1de366f20d108d961f737a341ef83267fe2887bb7b535e0b0a9d",
    (3, 'most-work', True, False):
        "f4a6b798dc82c2d97bb41c0c84aa1fe3f4d60dc190fa3c9a5482f84c02171224",
    (3, 'most-work', True, True):
        "1e92ac0bc59f5aad6d779f00a58e85dea35427575643f6e59b614be70d9b4dd2",
    (3, 'fifo', False, False):
        "5223e7ec74a26d43ffd9262372afcb8a15f6af1b0ac2643c683d8403b9202c02",
    (3, 'fifo', False, True):
        "b3cb61c45b0e1de366f20d108d961f737a341ef83267fe2887bb7b535e0b0a9d",
    (3, 'fifo', True, False):
        "16c9afb6eb4258154ec153a750291699001225de127e545f46f583caea0c0459",
    (3, 'fifo', True, True):
        "96ea927e0ca5899d2b69e9e6f9c6f69cc42d6924ddb19cceb636e06a7745a43f",
    (14, 'most-work', False, False):
        "6b2e7841c398889c103c1e15c61a132304ab39751f078ae1546bf67ad2024917",
    (14, 'most-work', False, True):
        "f21dc4aeb289201098dc2a9b4b2b3f6abd6057418f8422cf2746cf1382d21ca0",
    (14, 'most-work', True, False):
        "c82094cc1f3051a032438e1d98dd71e910bde98097917f1c2b1fe88b0364c5d0",
    (14, 'most-work', True, True):
        "8f85faeb344f029f959ea36d8e1570f4e52a24b3659e576f684a6942dc178b70",
    (14, 'fifo', False, False):
        "c984dc3133d14a6eb3278a1a330e6036a6669657a4f2a997b2ca5c5dcf980fb4",
    (14, 'fifo', False, True):
        "02f13633c161fe06f9ff79638c54576e090f3021292ee0e8db1a91003edf8d83",
    (14, 'fifo', True, False):
        "59737285e4c87f6351e327c2edbb95b858e2181ec0427e1bdea35986ced1c1ca",
    (14, 'fifo', True, True):
        "143f9635e7cc835e6a8c35efd3b83c94cf91f8658cf03cffbfb6a24f26280fc2",
}


def _golden_case(alpha, policy, bubbles, shrunk, exact):
    circuit = SingleAdderReduction(alpha=alpha, exact=exact,
                                   drain_policy=policy)
    if shrunk:
        _one_lane_per_bank(circuit)
    return circuit, _golden_feed(alpha, bubbles)


@pytest.mark.parametrize("drive", [_step_each, _run_chunks],
                         ids=["cycle", "run"])
@pytest.mark.parametrize("exact", [False, True], ids=["native", "exact"])
@pytest.mark.parametrize("case", sorted(GOLDEN), ids=repr)
def test_golden(case, exact, drive):
    """One ``cycle()`` per entry and one ``run`` over the whole feed
    both match the recorded digest, with either adder."""
    circuit, feed = _golden_case(*case, exact)
    flushed = drive(circuit, feed)
    assert _observed_digest(circuit, flushed) == GOLDEN[case]


@st.composite
def feeds(draw):
    """(α, drain policy, one lane per bank, feed, chunk bounds)."""
    alpha = draw(st.sampled_from([2, 3, 4, 5, 14]))
    sizes = draw(st.lists(
        st.one_of(st.integers(1, alpha + 2),
                  st.sampled_from([alpha * alpha, alpha * alpha + 1]),
                  st.integers(1, 4 * alpha * alpha)),
        min_size=1, max_size=12))
    feed = []
    for size in sizes:
        for j in range(size):
            feed.extend([None] * draw(st.sampled_from([0, 0, 0, 1, 3])))
            feed.append((_value(len(feed)), j == size - 1))
    bounds = draw(st.lists(st.integers(0, len(feed)), max_size=8))
    return (alpha, draw(st.sampled_from(["most-work", "fifo"])),
            draw(st.booleans()), feed, bounds)


@settings(max_examples=80, deadline=None)
@given(feeds())
def test_run_chunks_and_cycles_agree(case):
    """One ``run`` over the whole feed, ``run`` over random chunks and
    one ``cycle()`` per entry give the same results and stats."""
    alpha, policy, shrunk, feed, bounds = case
    observed = []
    for drive in (lambda c: _run_chunks(c, feed),
                  lambda c: _run_chunks(c, feed, bounds),
                  lambda c: _step_each(c, feed)):
        circuit = SingleAdderReduction(alpha=alpha, drain_policy=policy)
        if shrunk:
            _one_lane_per_bank(circuit)
        flushed = drive(circuit)
        observed.append((circuit.results, circuit.stats, flushed))
    assert observed[0] == observed[1] == observed[2]
