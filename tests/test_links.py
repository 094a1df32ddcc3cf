"""SharedLink equivalence pins and conservation properties.

Three contracts from the per-stream link refactor:

* a single-stream :class:`SharedLink` is *bit-identical* to the FIFO
  watermark model (``tests/helpers.WatermarkPipe``, the disk's model
  before the disk became a one-stream link) -- completion times,
  counters, the transfer log and kernel event counts, under arbitrary
  submit schedules;
* G symmetric streams reproduce the ``bandwidth / G`` fair-share closed
  form exactly (the constant the hierarchical topology used to bake into
  per-member pipe bandwidth, and the one ``collapse_schedule`` still
  uses);
* bytes are conserved under arbitrary open/close schedules: every
  submitted byte comes out of a completion event exactly once, and the
  link never beats its capacity.

The engine itself -- a transfer leaves the fair share when it drains and
completes ``latency`` later, and the drains between two link events are
replayed at the next one, with no event of their own -- is held to the
fluid model computed in exact arithmetic (``tests/helpers.fluid_drains``).
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import ExactSums
from repro.errors import EmptySchedule
from repro.sim import AllOf, BandwidthPipe, Environment, SharedLink
from repro.sim.fabric import RingFabric
from repro.sim.links import Stream, project
from repro.sim.loaders import SimContext
from repro.sim.workloads import CONFIG_A, make_workload

from .helpers import CheckedEnvironment, WatermarkPipe, fluid_drains


def drive(env, device, schedule, completions):
    """Submit ``(at, nbytes)`` transfers on ``device`` from independent
    processes and append ``(index, completion_time, value)`` tuples."""

    def submitter(at, nbytes, idx):
        yield env.timeout(at)
        value = yield device.transfer(nbytes)
        completions.append((idx, env.now, value))

    procs = [
        env.process(submitter(at, nbytes, idx))
        for idx, (at, nbytes) in enumerate(schedule)
    ]
    env.run(until=AllOf(env, procs))


# ---------------------------------------------------------------------------
# Pin 1: single stream == FIFO watermark, bit for bit
# ---------------------------------------------------------------------------

schedules = st.lists(
    st.tuples(
        # submit times land on exact eighths so equal-instant collisions
        # and due-exactly-at-finish races actually happen
        st.integers(min_value=0, max_value=64).map(lambda k: k / 8.0),
        st.integers(min_value=0, max_value=1 << 20),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=schedules,
    bandwidth=st.sampled_from([1.0, 2.5, 1e4]),
    latency=st.sampled_from([0.0, 1e-3, 0.25]),
)
def test_single_stream_matches_bandwidth_pipe_bit_for_bit(
    schedule, bandwidth, latency
):
    legacy_env = Environment()
    legacy = WatermarkPipe(legacy_env, bandwidth=bandwidth, latency=latency)
    legacy_done = []
    drive(legacy_env, legacy, schedule, legacy_done)

    link_env = Environment()
    stream = BandwidthPipe(link_env, bandwidth=bandwidth, latency=latency)
    link = stream.link
    link_done = []
    drive(link_env, stream, schedule, link_done)

    # exact equality on purpose: same float expressions, same event counts
    assert link_done == legacy_done
    assert link_env.now == legacy_env.now
    assert link_env.events_processed == legacy_env.events_processed
    assert link_env.events_skipped == legacy_env.events_skipped
    assert link.total_bytes == legacy.total_bytes
    assert link.transfer_count == legacy.transfer_count
    assert stream.total_bytes == legacy.total_bytes
    # the stream logs at completion, the watermark at submit: one FIFO
    # stream completes in submit order, so the logs are the same list
    assert stream.transfers == legacy.transfers
    # an uncontended stream pays no sharing penalty: its wait is exactly
    # the legacy watermark queue wait (start - submit), accumulated in
    # the same FIFO completion order
    order = sorted(range(len(schedule)), key=lambda i: (schedule[i][0], i))
    expected_wait = 0.0
    k = 0
    for i in order:
        at, nbytes = schedule[i]
        if nbytes == 0:
            continue
        start = legacy.transfers[k][0]
        k += 1
        expected_wait += (start - at) + 0.0
    assert stream.wait_seconds == expected_wait


@settings(max_examples=60, deadline=None)
@given(
    schedule=schedules,
    bandwidth=st.sampled_from([1.0, 2.5, 1e4]),
    latency=st.sampled_from([0.0, 1e-3, 0.25]),
)
def test_a_one_stream_wait_is_the_fifo_watermark_wait_bit_for_bit(
    schedule, bandwidth, latency
):
    """A one-stream link's share never moves, so the wait read off each
    completed transfer, ``start - submitted``, is the FIFO watermark's
    ``max(0, previous drain - submit)`` bit for bit: the float a wait
    projected at submit would give.  The disk is such a link, which is
    why its storage waits do not move when they are booked at completion."""
    env = Environment()
    stream = BandwidthPipe(env, bandwidth=bandwidth, latency=latency)
    sent = {}

    def submitter(at, nbytes, idx):
        yield env.timeout(at)
        sent[idx] = stream.transfer(nbytes)
        yield sent[idx]

    env.run(until=AllOf(env, [
        env.process(submitter(at, nbytes, idx))
        for idx, (at, nbytes) in enumerate(schedule)
    ]))
    watermark = 0.0
    for i in sorted(range(len(schedule)), key=lambda i: (schedule[i][0], i)):
        at, nbytes = schedule[i]
        if nbytes == 0:
            continue
        t = sent[i]
        assert t.submitted == at
        assert t.start - t.submitted == max(0.0, watermark - at)
        watermark = max(at, watermark) + nbytes / bandwidth


# ---------------------------------------------------------------------------
# Pin 2: G symmetric streams == bandwidth / G closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ranks", [2, 3, 4, 8])
def test_symmetric_streams_match_fair_share_closed_form(ranks):
    bandwidth, latency, chunk, rounds = 40.0, 0.002, 120.0, 5
    env = Environment()
    link = SharedLink(env, bandwidth=bandwidth, latency=latency)
    streams = [link.stream(("rank", g)) for g in range(ranks)]

    def member(stream):
        for _ in range(rounds):
            yield stream.transfer(chunk)

    procs = [env.process(member(s)) for s in streams]
    env.run(until=AllOf(env, procs))

    # replicate the engine's float expressions: each round all G streams
    # drain together at exactly bandwidth / G and resubmit at the shared
    # finish instant
    share = bandwidth / ranks
    expected = 0.0
    for _ in range(rounds):
        expected = (expected + latency) + chunk / share
    assert env.now == expected

    # per-stream and per-class wait is exactly the fair-sharing slowdown
    # versus an idle link, accumulated round by round
    per_round = chunk / share - chunk / bandwidth
    acc = 0.0
    for _ in range(rounds):
        acc += per_round
    for s in streams:
        assert s.wait_seconds == acc
    total = 0.0
    for _ in range(rounds):
        for _ in range(ranks):
            total += per_round
    assert link.wait_by_class == {"collective": total}
    # the link's one entry leaves an entry behind at each of the first
    # round's G - 1 later opens, and once a round after: the round's last
    # completion hands it to a resubmitted head, and the last resubmit,
    # opening after that, takes it over
    assert env.events_skipped == (ranks - 1) + (rounds - 1)


def test_two_streams_converge_and_finish_together():
    """A mid-flight open splits the rate: 100 B at 10 B/s alone from t=0,
    then 50 B more opening at t=5 -- both drain at t=15 exactly."""
    env = Environment()
    link = SharedLink(env, bandwidth=10.0)
    a, b = link.stream("a"), link.stream("b")
    done = {}

    def reader(tag, stream, at, nbytes):
        yield env.timeout(at)
        yield stream.transfer(nbytes)
        done[tag] = env.now

    env.process(reader("a", a, 0.0, 100.0))
    env.process(reader("b", b, 5.0, 50.0))
    env.run()
    assert done == {"a": 15.0, "b": 15.0}
    # a's share moved while it drained: it books (drain - start) - 100/10;
    # b drained at one share throughout and books project's excess
    assert a.wait_seconds == (15.0 - 0.0) - 100.0 / 10.0
    assert b.wait_seconds == 50.0 / 5.0 - 50.0 / 10.0


@pytest.mark.parametrize("latency", [0.0, 0.25])
def test_heads_draining_at_one_instant_complete_in_creation_order(latency):
    """The one order a link fixes among heads that drain together: stream
    creation order.  a, created first, sends 2 B alone from t = 0 on a
    1 B/s link; b opens at t = 1 with 1 B, and both drain at t = 3.  a
    completes first, although b's opening set the share they drained at."""
    env = Environment()
    link = SharedLink(env, bandwidth=1.0, latency=latency)
    a, b = link.stream("a"), link.stream("b")
    done = []

    def sender(tag, stream, at, nbytes):
        yield env.timeout(at)
        yield stream.transfer(nbytes)
        done.append((tag, env.now))

    env.process(sender("b", b, 1.0, 1))
    env.process(sender("a", a, 0.0, 2))
    env.run()
    assert done == [("a", 3.0 + latency), ("b", 3.0 + latency)]


def test_a_drained_transfer_leaves_the_fair_share():
    """1 B at t = 0 and 1 B at t = 5 ms on a 1 000 B/s, 10 ms link: the
    first drains at 1 ms and holds no share in its latency tail, so the
    second drains alone and neither is re-timed -- they complete at 11 ms
    and 16 ms, and neither waited."""
    env = CheckedEnvironment()
    link = SharedLink(env, bandwidth=1000.0, latency=0.01)
    a, b = link.stream("a"), link.stream("b")
    done = {}

    def sender(tag, stream, at):
        yield env.timeout(at)
        yield stream.transfer(1)
        done[tag] = env.now
        if tag == "b":
            # inside b's latency tail the link is already idle
            assert link.busy_streams() == []

    def probe():
        yield env.timeout(0.003)
        # a drained at 1 ms: nothing is busy in its latency tail
        seen["tail"] = link.busy_streams()

    seen = {}
    env.process(sender("a", a, 0.0))
    env.process(sender("b", b, 0.005))
    env.process(probe())
    env.run()
    assert done == {"a": 0.011, "b": 0.016}
    assert seen["tail"] == []
    assert (a.wait_seconds, b.wait_seconds) == (0.0, 0.0)
    assert env.events_skipped == 0


def test_a_transfer_whose_share_moved_books_its_actual_slowdown():
    """A zero-latency 1 000 B/s link: a sends 10 B at t = 0, b sends 10 B at
    t = 5 ms.  a drains 5 B alone, then both drain at 500 B/s until a
    finishes at 15 ms, then b drains its last 5 B alone by 20 ms.  Each was
    slowed by exactly 5 ms, and books it, per stream and per class."""
    env = Environment()
    link = SharedLink(env, bandwidth=1000.0)
    sink = ExactSums()
    a = link.stream("a", "loader", sink)
    b = link.stream("b", "checkpoint", sink)
    done = {}

    def sender(tag, stream, at):
        yield env.timeout(at)
        yield stream.transfer(10)
        done[tag] = env.now

    env.process(sender("a", a, 0.0))
    env.process(sender("b", b, 0.005))
    env.run()
    assert done == pytest.approx({"a": 0.015, "b": 0.020}, rel=1e-12)
    assert a.wait_seconds == pytest.approx(0.005, rel=1e-9)
    assert b.wait_seconds == pytest.approx(0.005, rel=1e-9)
    assert link.wait_by_class == sink
    assert sink == pytest.approx({"loader": 0.005, "checkpoint": 0.005}, rel=1e-9)


# ---------------------------------------------------------------------------
# Conservation under arbitrary open/close schedules
# ---------------------------------------------------------------------------

mixed_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # stream id
        st.integers(min_value=0, max_value=40).map(lambda k: k / 4.0),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    min_size=1,
    max_size=32,
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=mixed_schedules,
    bandwidth=st.sampled_from([1.0, 8.0, 1e3]),
    latency=st.sampled_from([0.0, 0.125]),
)
def test_shared_link_conserves_bytes(schedule, bandwidth, latency):
    env = Environment()
    link = SharedLink(env, bandwidth=bandwidth, latency=latency)
    classes = ["collective", "loader", "checkpoint", "loader"]
    streams = {
        sid: link.stream(("s", sid), cls=classes[sid]) for sid in range(4)
    }
    done = []

    def submitter(sid, at, nbytes):
        yield env.timeout(at)
        value = yield streams[sid].transfer(nbytes)
        done.append(value)

    procs = [
        env.process(submitter(sid, at, nbytes))
        for sid, at, nbytes in schedule
    ]
    env.run(until=AllOf(env, procs))

    submitted = sum(n for _sid, _at, n in schedule)
    live = [(sid, n) for sid, _at, n in schedule if n > 0]
    # every submitted byte completes exactly once (integer sizes, so the
    # float sums are exact)
    assert sum(done) == submitted
    assert link.total_bytes == submitted
    assert link.transfer_count == len(live)
    for sid, stream in streams.items():
        assert stream.total_bytes == sum(n for s, n in live if s == sid)
    by_class = {}
    for sid, n in live:
        cls = classes[sid]
        by_class[cls] = by_class.get(cls, 0.0) + n
    assert link.bytes_by_class == by_class
    # the link never beats its capacity: the last byte cannot drain
    # before the aggregate fluid lower bound
    if submitted:
        assert env.now >= submitted / bandwidth * (1.0 - 1e-9)
    # waits are non-negative: sharing can only slow a stream down
    for stream in streams.values():
        assert stream.wait_seconds >= -1e-9
    for secs in link.wait_by_class.values():
        assert secs >= -1e-9
    # the link is quiescent again: no stream holds a queued transfer
    assert link.busy_streams() == []
    for stream in streams.values():
        assert not stream._chain


# ---------------------------------------------------------------------------
# A transfer is its own completion event
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "wait",
    [lambda env, event: event, lambda env, event: AllOf(env, [event])],
    ids=["yield", "all-of"],
)
def test_a_late_yield_on_a_re_projected_transfer_waits_for_its_completion(wait):
    """Stream a sends 100 B at t = 0 on a 1000 B/s link and would finish at
    0.1; stream b opens at 0.05, so a finishes at 0.15.  A caller that
    waits on a's event at 0.12 -- past the instant it was first projected
    for -- must resume at a's completion, not at once."""
    env = CheckedEnvironment()
    link = SharedLink(env, bandwidth=1000.0)
    a, b = link.stream("a"), link.stream("b")
    seen = {}

    def sender():
        seen["event"] = a.transfer(100)
        yield seen["event"]
        seen["done"] = env.now

    def opener():
        yield env.timeout(0.05)
        yield b.transfer(100)

    def late():
        yield env.timeout(0.12)
        seen["value"] = yield wait(env, seen["event"])
        seen["late"] = env.now

    for body in (sender(), opener(), late()):
        env.process(body)
    env.run()
    assert seen["done"] == pytest.approx(0.15)
    assert seen["late"] == seen["done"]
    assert seen["value"] in (100.0, {seen["event"]: 100.0})


def test_a_stream_tag_is_bound_to_its_class():
    """Asking for an existing stream under another class would book its
    bytes under the first class without a word: refused."""
    link = SharedLink(Environment(), bandwidth=1.0)
    loader = link.stream(("tenant", 0, "io"), "loader")
    with pytest.raises(ValueError, match="carries class 'loader', not 'checkpoint'"):
        link.stream(("tenant", 0, "io"), "checkpoint")
    with pytest.raises(ValueError, match="not 'collective'"):
        link.stream(("tenant", 0, "io"))  # the default class
    sink = {}
    assert link.stream(("tenant", 0, "io"), "loader", sink) is loader
    assert loader.sink is sink


@pytest.mark.parametrize(
    "knobs",
    [
        {"bandwidth": 0.0},
        {"bandwidth": -1.0},
        {"bandwidth": float("nan")},
        {"bandwidth": float("inf")},
        {"bandwidth": 1.0, "latency": -1e-3},
        {"bandwidth": 1.0, "latency": float("nan")},
        {"bandwidth": 1.0, "latency": float("inf")},
    ],
)
def test_a_link_without_a_finite_rate_or_delay_is_refused(knobs):
    """Every disk, NIC and intra-node link is built here; a NaN or
    infinite bandwidth or latency would only surface as NaN instants."""
    knob = "latency" if "latency" in knobs else "bandwidth"
    with pytest.raises(ValueError, match=knob):
        SharedLink(Environment(), **knobs)


@pytest.mark.parametrize("nbytes", [float("nan"), -1.0])
def test_a_transfer_without_a_size_is_refused_with_nothing_booked(nbytes):
    env = Environment()
    link = SharedLink(env, bandwidth=1.0)
    stream = link.stream("s")
    with pytest.raises(ValueError, match="cannot transfer"):
        stream.transfer(nbytes)
    assert (link.total_bytes, link.transfer_count, stream.total_bytes) == (0, 0, 0)
    assert env.peek() == float("inf")


CLASSES = ("collective", "loader", "checkpoint")


@st.composite
def link_programs(draw):
    """One or two links (latency 0 or > 0), 1-12 streams with classes and
    optional shared sinks, and processes that each send a few transfers
    one after another -- gaps on an eighth-second grid, so same-instant
    bursts, FIFO appends on a busy stream and resubmits at a completion
    instant all happen; zero-byte sends included."""
    links = [
        (draw(st.sampled_from([1.0, 3.0, 10.0, 1e3])), draw(st.sampled_from([0.0, 1e-3, 0.125])))
        for _ in range(draw(st.integers(1, 2)))
    ]
    streams = [
        (
            draw(st.integers(0, len(links) - 1)),
            draw(st.sampled_from(CLASSES)),
            draw(st.sampled_from([None, 0, 1])),
        )
        for _ in range(draw(st.integers(1, 12)))
    ]
    send = st.tuples(
        st.integers(0, len(streams) - 1),
        st.sampled_from([0, 0, 1, 2, 4]).map(lambda k: k / 8.0),
        st.sampled_from([0, 1, 3, 7, 100, 1000]),
    )
    processes = draw(st.lists(st.lists(send, min_size=1, max_size=4), min_size=1, max_size=8))
    return links, streams, processes


def live_entries(link):
    """The live kernel heap entries that carry a transfer of ``link``."""
    return [
        event
        for _when, _prio, eid, event in link.env._queue
        if eid == event._eid and getattr(event, "stream", None) in link.streams()
    ]


def check_link_invariants(link, delivered, pending):
    """At an instant's end: every submitted byte is delivered or pending
    (draining, queued or in its latency tail), only pending transfers are
    on a chain, the streams with a chain are the busy ones, the busy
    heads' shares do not exceed the bandwidth, and the link holds one
    live kernel entry while anything is pending, none otherwise."""
    assert link.total_bytes == delivered + sum(t.nbytes for t in pending)
    assert all(t in pending for s in link.streams() for t in s._chain)
    busy = sorted((s for _v, _o, s in link._heads), key=lambda s: s._order)
    assert [s for s in link.streams() if s._chain] == busy
    shares = sum(link.bandwidth / len(busy) for _s in busy)
    assert shares <= link.bandwidth * (1.0 + 1e-12)
    assert len(live_entries(link)) == (1 if pending else 0)


class CountingEnvironment(CheckedEnvironment):
    """Counts delivered events by type."""

    def __init__(self) -> None:
        super().__init__()
        self.delivered = Counter()

    def _pop_next(self):
        event = super()._pop_next()
        if event is not None:
            self.delivered[type(event).__name__] += 1
        return event


def run_link_program(program):
    """Run ``program`` on ``SharedLink`` and return the environment, the
    links, the streams, the sinks and every transfer as ``[link, stream,
    submitted, nbytes, completed]`` in submission order."""
    params, stream_specs, processes = program
    env = CountingEnvironment()
    links = [SharedLink(env, bandwidth, latency) for bandwidth, latency in params]
    sinks = [ExactSums(), ExactSums()]
    streams = [
        links[at].stream(("s", sid, cls), cls, None if sink is None else sinks[sink])
        for sid, (at, cls, sink) in enumerate(stream_specs)
    ]
    delivered = [0.0] * len(links)
    pending = [set() for _ in links]
    transfers = []

    def sender(sends):
        for sid, gap, nbytes in sends:
            if gap:
                yield env.timeout(gap)
            at = stream_specs[sid][0]
            event = streams[sid].transfer(nbytes)
            record = [at, sid, env.now, nbytes, None]
            if nbytes:
                pending[at].add(event)
                transfers.append(record)
            value = yield event
            pending[at].discard(event)
            delivered[at] += value
            record[4] = env.now

    for sends in processes:
        env.process(sender(sends))
    while True:
        try:
            env.step()
        except EmptySchedule:
            break
        if env.peek() > env.now:
            for link, done, live in zip(links, delivered, pending):
                check_link_invariants(link, done, live)
    assert all(link.busy_streams() == [] for link in links)
    return env, links, streams, sinks, transfers


@settings(max_examples=200, deadline=None)
@given(program=link_programs())
def test_the_link_engine_is_the_exact_fluid_model(program):
    """Given the submits the engine saw, in its order, the fluid model in
    exact arithmetic completes each transfer where the engine did, and
    books the same waits -- completion instants to a relative 1e-9, waits
    (per stream, per class, per sink) to 1e-9 of the run's makespan.  The
    two pinned regimes above are exact.  Every transfer is delivered as
    one event, and a link makes no other: a drain costs no event."""
    env, links, streams, sinks, transfers = run_link_program(program)
    exact = [None] * len(transfers)
    for at, link in enumerate(links):
        mine = [i for i, record in enumerate(transfers) if record[0] == at]
        drains = fluid_drains(
            link.bandwidth,
            [(transfers[i][2], transfers[i][1], transfers[i][3]) for i in mine],
        )
        for i, drain in zip(mine, drains):
            exact[i] = (drain, drain + Fraction(link.latency))
    span = max([1.0] + [record[4] for record in transfers])

    def close(value, reference):
        return math.isclose(value, reference, rel_tol=0.0, abs_tol=1e-9 * span)

    waits = [Fraction(0)] * len(streams)
    classes, sunk = [{} for _ in links], [{}, {}]
    for (at, sid, submitted, nbytes, completed), (drain, finish) in zip(
        transfers, exact
    ):
        assert math.isclose(completed, finish, rel_tol=1e-9)
        wait = drain - Fraction(submitted) - Fraction(nbytes) / Fraction(links[at].bandwidth)
        waits[sid] += wait
        cls = streams[sid].cls
        classes[at][cls] = classes[at].get(cls, 0) + wait
        sink = program[1][sid][2]
        if sink is not None:
            sunk[sink][cls] = sunk[sink].get(cls, 0) + wait
    for stream, wait in zip(streams, waits):
        assert close(stream.wait_seconds, wait)
    for booked, expected in zip(
        [link.wait_by_class for link in links] + sinks, classes + sunk
    ):
        assert booked.keys() == expected.keys()
        assert all(close(booked[c], expected[c]) for c in expected)
    # bytes: every transfer delivered exactly once, counted where submitted
    for at, link in enumerate(links):
        mine = [record for record in transfers if record[0] == at]
        assert link.transfer_count == len(mine)
        assert link.total_bytes == sum(record[3] for record in mine)
    assert env.delivered["_Transfer"] == len(transfers)
    assert env.delivered["Event"] == 0


@settings(max_examples=200, deadline=None)
@given(program=link_programs())
def test_a_link_makes_no_event_but_its_completions(program):
    """The programs above with every send chained from its predecessor's
    completion callback (zero-byte sends dropped), so nothing but the
    links schedules: every delivered event is a transfer completing --
    a drain, a share change or a moved entry costs none -- and between
    any two deliveries no link holds more than one live kernel entry."""
    params, stream_specs, processes = program
    env = CheckedEnvironment()
    links = [SharedLink(env, bandwidth, latency) for bandwidth, latency in params]
    streams = [
        links[at].stream(("s", sid, cls), cls)
        for sid, (at, cls, _sink) in enumerate(stream_specs)
    ]
    sends = [[(sid, n) for sid, _gap, n in sends if n] for sends in processes]
    sent = []

    def send(rest, _event=None):
        if rest:
            (sid, nbytes), rest = rest[0], rest[1:]
            sent.append(nbytes)
            streams[sid].transfer(nbytes).callbacks.append(
                lambda event: send(rest, event)
            )

    for rest in sends:
        send(rest)
    while True:
        assert all(len(live_entries(link)) <= 1 for link in links)
        try:
            env.step()
        except EmptySchedule:
            break
    assert env.events_processed == len(sent)
    assert sum(link.total_bytes for link in links) == sum(sent)


@pytest.mark.parametrize("latency", [0.0, 0.003])
@pytest.mark.parametrize("ranks", [2, 3, 5, 8])
def test_heads_draining_at_one_instant_leave_together(ranks, latency):
    """G streams open at t = 0 with one equal chunk each, and every other
    one queues a second behind it: all G heads drain at one instant and
    leave before the busy count falls to the streams that go on, whose
    chunks then drain together at the new share.  Each transfer completes
    at ``project``'s finish and books ``project``'s excess, exactly."""
    bandwidth, chunk = 48.0, 7.0
    env = Environment()
    link = SharedLink(env, bandwidth=bandwidth, latency=latency)
    done = []
    for g in range(ranks):
        stream = link.stream(("rank", g))
        for k in range(1 + g % 2):
            stream.transfer(chunk).callbacks.append(
                lambda _e, g=g, k=k: done.append((g, k, env.now))
            )
    env.run()
    first = project(0.0, chunk, bandwidth, latency, ranks)
    later = project(first[0], chunk, bandwidth, latency, ranks // 2)
    assert sorted(done) == sorted(
        [(g, 0, first[1]) for g in range(ranks)]
        + [(g, 1, later[1]) for g in range(1, ranks, 2)]
    )
    for g in range(ranks):
        wait = link.stream(("rank", g)).wait_seconds
        if g % 2:
            assert wait == (0.0 + first[2]) + ((first[0] - 0.0) + later[2])
        else:
            assert wait == 0.0 + first[2]
    assert env.events_processed == ranks + ranks // 2


# ---------------------------------------------------------------------------
# A wait is read off the transfer that waited
# ---------------------------------------------------------------------------


@pytest.fixture
def probed_transfers(monkeypatch):
    """Every transfer with bytes to move on a stream ``probed(stream)``
    picks, in the order they complete (the probe's callback runs before
    the submitter's)."""
    completed = []
    transfer = Stream.transfer

    def probe(probed):
        def recorded(stream, nbytes):
            sent = transfer(stream, nbytes)
            if nbytes > 0 and probed(stream):
                sent.callbacks.append(completed.append)
            return sent

        monkeypatch.setattr(Stream, "transfer", recorded)
        return completed

    return probe


def test_storage_wait_is_what_the_reads_waited_on_a_shared_nic(probed_transfers):
    """Two streams on one NIC: a tenant's remote-storage reads and a
    collective.  The collective opens while the tenant's second read is
    queued behind its first on the NIC, so that read starts later than
    its submit-time share promised.  ``storage_wait_seconds`` is what the
    disk and NIC hops measured, ``start - submitted``, summed."""
    env = Environment()
    workload = make_workload("image_segmentation", dataset_size=4)
    specs = [workload.dataset.spec(i) for i in range(2)]
    disk_seconds = specs[0].raw_nbytes / CONFIG_A.storage.bandwidth
    # a read crosses the NIC 100 times slower than it leaves the disk
    nic = SharedLink(env, bandwidth=CONFIG_A.storage.bandwidth / 100)
    ctx = SimContext(
        env, workload, CONFIG_A, 1, nic=nic.stream("reads", cls="loader")
    )
    collective = nic.stream("ring")
    reads = probed_transfers(lambda stream: stream in (ctx.disk, ctx.nic))

    def contend():
        yield env.timeout(20 * disk_seconds)
        yield collective.transfer(specs[0].raw_nbytes)

    for spec in specs:
        env.process(ctx.read_sample(spec))
    env.process(contend())
    env.run()
    assert len(reads) == 4  # two disk hops, two NIC hops
    first, second = [t for t in reads if t.stream.link is nic]
    # the share moved between the second read's submit and its start
    assert second.submitted < 20 * disk_seconds < second.start
    assert second.start > first.start + first.nbytes / nic.bandwidth
    measured = 0.0
    for t in reads:
        measured += t.start - t.submitted
    assert ctx.storage_wait_seconds == measured


def test_link_wait_is_what_the_overlapped_sends_waited(probed_transfers):
    """Two buckets overlap on each rank's stream, so a rank's second send
    queues behind its first; a loader stream opens on rank 0's NIC while
    it waits, so it starts later than its submit-time share promised.
    ``link_wait_seconds`` is what the sends measured, summed."""
    sends = probed_transfers(lambda stream: stream.cls == "collective")
    env = Environment()
    bandwidth, nbytes = 100.0, 200.0
    fabric = RingFabric(env, latency=0.0, bandwidth=bandwidth, gradient_bytes=nbytes)
    fabric.set_ring([0, 1])
    for k in range(2):
        for member in (0, 1):
            fabric.start(("step", k), member)
    loader = fabric.topology.stream(0, cls="loader", tenant="reads")
    chunk = nbytes / 2

    def contend():
        yield env.timeout(0.5 * chunk / bandwidth)
        yield loader.transfer(0.4 * chunk)

    env.process(contend())
    env.run()
    assert fabric.in_flight == 0
    queued = [t for t in sends if t.stream.tag[1] == 0 and t.submitted == 0.0][1]
    # the share moved between the queued send's submit and its start
    assert queued.start > chunk / bandwidth
    measured = 0.0
    for t in sends:
        measured += t.start - t.submitted
    assert measured > 0
    assert fabric.link_wait_seconds == measured
