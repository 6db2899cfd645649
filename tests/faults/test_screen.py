"""``FaultInjector.screen``: batched draws decide exactly what per-event
draws decide.

The data plane draws each batch's packet and helper faults with one
``screen(n)`` call.  These properties pin it to the per-event API
(``packet_fault`` + ``helper_fault``) under arbitrary chunking and
interleaved map updates, and pin both to ``FaultPlan.schedule`` and to
the reference hash ``fast_hash32((index << 7) ^ salt, seed)``.  Each
decision is one ``_fires`` call, which tracing tools count as a draw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.hashing import fast_hash32
from repro.faults import (
    HELPER,
    MAP_FULL,
    MAP_NOMEM,
    PACKET_KINDS,
    RATE_KINDS,
    FaultInjector,
    FaultPlan,
    _KIND_SALT,
    _core_seed,
)

RATE = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
FIELDS = {
    "pkt_drop": "drop_rate",
    "pkt_corrupt": "corrupt_rate",
    "pkt_truncate": "truncate_rate",
    "pkt_dup": "dup_rate",
    "helper": "helper_rate",
    "map_full": "map_full_rate",
    "map_nomem": "map_nomem_rate",
}
PLANS = st.builds(
    lambda seed, rates: FaultPlan(seed=seed, **{
        FIELDS[kind]: rate for kind, rate in zip(RATE_KINDS, rates)
    }),
    st.integers(0, 2**32 - 1),
    st.tuples(*[RATE] * len(RATE_KINDS)),
)
#: A chunk size for ``screen`` (0 included), or None for a map update.
OPS = st.lists(st.one_of(st.integers(0, 40), st.none()), max_size=12)


def expand(hits, n):
    """Sparse ``screen`` hits -> one (packet fault, helper) per packet."""
    decisions = [(None, False)] * n
    for i, kind, helper in hits:
        assert kind is not None or helper, "a listed packet drew a fault"
        decisions[i] = (kind, helper)
    return decisions


def map_outcome(injector):
    error = injector.map_update_fault()
    return None if error is None else type(error).__name__


@settings(max_examples=150, deadline=None)
@given(plan=PLANS, core=st.integers(0, 7), ops=OPS)
def test_screen_matches_per_event_draws(plan, core, ops):
    batched, single = plan.injector(core), plan.injector(core)
    for op in ops:
        if op is None:
            assert map_outcome(batched) == map_outcome(single)
            continue
        got = expand(batched.screen(op), op)
        want = [(single.packet_fault(), single.helper_fault())
                for _ in range(op)]
        assert got == want
    # Same counts, first-injected order included (reports print it).
    assert list(batched.injected.items()) == list(single.injected.items())
    assert (batched.describe()["events_seen"]
            == single.describe()["events_seen"])


def reference_schedule(plan, kind, n, core):
    seed = _core_seed(plan.seed, core)
    rate = plan.rates()[kind]
    return [
        i for i in range(n)
        if fast_hash32((i << 7) ^ _KIND_SALT[kind], seed) / 4294967296.0
        < rate
    ]


@settings(max_examples=150, deadline=None)
@given(plan=PLANS, core=st.integers(0, 7), ops=OPS)
def test_screen_matches_the_plan_schedule(plan, core, ops):
    injector = plan.injector(core)
    packets, maps = [], []
    for op in ops:
        if op is None:
            maps.append(map_outcome(injector))
        else:
            packets.extend(expand(injector.screen(op), op))
    n, m = len(packets), len(maps)
    for kind in RATE_KINDS:
        for count in (n, m):
            assert (plan.schedule(kind, count, core)
                    == reference_schedule(plan, kind, count, core))
    fired = {kind: set(plan.schedule(kind, n, core)) for kind in PACKET_KINDS}
    for i, (kind, helper) in enumerate(packets):
        # Precedence: the first firing packet kind wins.
        assert kind == next((k for k in PACKET_KINDS if i in fired[k]), None)
    assert [i for i, (_, helper) in enumerate(packets) if helper] == (
        plan.schedule(HELPER, n, core)
    )
    full = set(plan.schedule(MAP_FULL, m, core))
    nomem = set(plan.schedule(MAP_NOMEM, m, core))
    assert maps == [
        "MapFullError" if j in full
        else "MapNoMemError" if j in nomem else None
        for j in range(m)
    ]


@settings(max_examples=50, deadline=None)
@given(plan=PLANS, n=st.integers(0, 40))
def test_every_decision_is_one_fires_call(plan, n):
    injector = plan.injector()
    calls = []
    fires = FaultInjector._fires
    injector._fires = lambda kind: calls.append(kind) or fires(injector, kind)
    injector.screen(n)
    assert calls == [*PACKET_KINDS, HELPER] * n
