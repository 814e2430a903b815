"""Properties of the shared refinement-verdict rule."""

import math

from hypothesis import given
from hypothesis import strategies as st

from bnlab.reports import BOUNDED, DIVERGING, INCONCLUSIVE, verdict_from_trace

# suprema are non-negative; these stay normal under the 2^k scalings below,
# so scaling is exact
sups = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
traces = st.lists(sups, min_size=0, max_size=8)


@given(trace=traces, k=st.integers(-16, 16))
def test_verdict_is_scale_invariant(trace, k):
    assert verdict_from_trace([2.0 ** k * v for v in trace]) == verdict_from_trace(trace)


@given(head=st.lists(sups, max_size=6), last_two=st.tuples(sups, sups).map(sorted))
def test_a_trace_that_ends_without_rising_is_bounded(head, last_two):
    assert verdict_from_trace(head + last_two[::-1]) == BOUNDED


@given(start=st.floats(1e-6, 1.0),
       excess=st.lists(st.floats(1.01, 4.0), min_size=1, max_size=6))
def test_a_trace_growing_by_more_than_the_factor_each_level_is_diverging(start, excess):
    # each ratio is at least 1% above the factor 2, far beyond the product's rounding
    trace = [start]
    for r in excess:
        trace.append(trace[-1] * 2.0 * r)
    assert verdict_from_trace(trace) == DIVERGING


@given(trace=st.lists(sups, max_size=1))
def test_fewer_than_two_levels_are_inconclusive(trace):
    assert verdict_from_trace(trace) == INCONCLUSIVE


non_finite = st.sampled_from([math.inf, math.nan])


@given(head=st.lists(sups | non_finite, max_size=6), bad=non_finite,
       tail=st.lists(sups | non_finite, max_size=2))
def test_a_trace_with_a_non_finite_sup_is_never_bounded(head, bad, tail):
    # an infinite last sup is unbounded; any other non-finite trace says nothing
    trace = head + [bad] + tail
    verdict = verdict_from_trace(trace)
    assert verdict != BOUNDED
    if len(trace) >= 2 and trace[-1] == math.inf:
        assert verdict == DIVERGING
