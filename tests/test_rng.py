import numpy as np
import pytest

from uqmc.exceptions import InvalidParameterError
from uqmc.rng import RngStream


def test_same_state_same_draws():
    a = RngStream(seed=42, stream_id=3, counter=17)
    b = RngStream(seed=42, stream_id=3, counter=17)
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))
    assert np.array_equal(a.advance(1000).uniforms(50), b.advance(1000).uniforms(50))


def test_per_index_stability_under_chunking():
    s = RngStream(seed=1)
    whole = s.uniforms(1000)
    parts = np.concatenate([s.uniforms(100), s.advance(100).uniforms(400), s.advance(500).uniforms(500)])
    assert np.array_equal(whole, parts)


def test_chunking_at_non_block_boundaries():
    s = RngStream(seed=9, stream_id=5)
    whole = s.uniforms(23)
    parts = np.concatenate([s.uniforms(3), s.advance(3).uniforms(7), s.advance(10).uniforms(13)])
    assert np.array_equal(whole, parts)


def test_uniforms_in_open_interval():
    u = RngStream(seed=0).uniforms(100_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_split_independence_and_value_semantics():
    root = RngStream(seed=7)
    child_a = root.split(0)
    child_b = root.split(1)
    assert child_a != child_b
    assert not np.array_equal(child_a.uniforms(100), child_b.uniforms(100))
    # splitting again yields the same child stream
    assert np.array_equal(child_a.uniforms(10), root.split(0).uniforms(10))
    # parent is untouched by splits and draws
    assert root == RngStream(seed=7)


def test_nested_splits_distinct():
    root = RngStream(seed=7)
    seen = set()
    for i in range(20):
        for j in range(20):
            seen.add(root.split(i).split(j).stream_id)
    assert len(seen) == 400


def test_generator_determinism():
    s = RngStream(seed=3, stream_id=2, counter=8)
    a = s.generator().standard_normal(10)
    b = s.generator().standard_normal(10)
    assert np.array_equal(a, b)


def test_known_values_frozen():
    # Regression pin: platform-stable draws for a fixed state.
    u = RngStream(seed=123, stream_id=456, counter=789).uniforms(3)
    assert np.array_equal(u, RngStream(123, 456, 789).uniforms(3))
    assert u.shape == (3,)


def test_negative_draw_count_rejected():
    with pytest.raises(ValueError):
        RngStream(seed=0).uniforms(-1)
    with pytest.raises(ValueError):
        RngStream(seed=0).uniforms(-1, out=np.empty(0))


@pytest.mark.parametrize("n", [1, 7, 65_536, 100_001])
def test_uniforms_into_a_buffer_match_the_raw_formula(n):
    # ``uniforms`` skips counter & 3 lanes of a Philox block and lets numpy
    # write (raw >> 11) * 2^-53 before adding 2^-54; that rounds as the
    # formula ((raw >> 11) + 0.5) * 2^-53 on the raw outputs does.
    from numpy.random import Philox

    from uqmc.rng import _philox_key

    for counter in range(8):
        s = RngStream(seed=77, stream_id=2**63 + 9, counter=counter)
        bg = Philox(counter=[counter >> 2, 0, 0, 0], key=_philox_key(s.seed, s.stream_id))
        raw = bg.random_raw(counter % 4 + n)[counter % 4 :]
        want = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        buf = np.full(n, np.nan)
        assert s.uniforms(n, out=buf) is buf
        assert np.array_equal(buf, want)
        assert np.array_equal(s.uniforms(n), want)


@pytest.mark.parametrize("seed", [-1, 2**53, 2**63, 2**64 - 1])
def test_seed_outside_range_rejected(seed):
    # Such seeds wrap or lose low bits in the Philox key and collide.
    with pytest.raises(InvalidParameterError, match="seed"):
        RngStream(seed)


def test_largest_seed_accepted():
    s = RngStream(2**53 - 1)
    assert not np.array_equal(s.split(2).uniforms(8), RngStream(2**53 - 2).split(2).uniforms(8))


# Child streams of RngStream(2**53 - 1): split(0) and split(1) have ids
# below 2**63 (0x5e41..., 0x6468...), split(2) and split(3) above
# (0xbccd..., 0xa056...), where the key's id word is rounded to float64.
# Written as hex floats so that a numpy upgrade cannot move them silently.
PINNED_CHILD_UNIFORMS = {
    0: ["0x1.471386130cf3cp-4", "0x1.9b740f64ebfc4p-1", "0x1.b9c2a6c311e86p-1"],
    1: ["0x1.d0ec2c8380336p-1", "0x1.729667aa9d9b0p-1", "0x1.a125e55f48e1ap-1"],
    2: ["0x1.56afb039ea66cp-4", "0x1.70743362830b4p-4", "0x1.998b0b531bddap-3"],
    3: ["0x1.97d4afd6108e4p-1", "0x1.e715ed5de8c5ep-3", "0x1.049aa31615a26p-3"],
}


@pytest.mark.parametrize("child", sorted(PINNED_CHILD_UNIFORMS))
def test_child_stream_draws_pinned(child):
    s = RngStream(2**53 - 1).split(child)
    assert (s.stream_id >= 2**63) == (child >= 2)
    assert [u.hex() for u in s.uniforms(3)] == PINNED_CHILD_UNIFORMS[child]


def test_generator_of_rounded_key_pinned():
    g = RngStream(2**53 - 1).split(3).advance(8).generator()
    assert [v.hex() for v in g.random(3)] == [
        "0x1.1f1062122a1a4p-2", "0x1.bc3b439d44204p-2", "0x1.0cd8a46acd22cp-2"
    ]


def test_philox_key_exact_below_2_63_rounded_above():
    from uqmc.rng import _philox_key

    assert _philox_key(2**53 - 1, 2**63 - 1).tolist() == [2**53 - 1, 2**63 - 1]
    # Above 2**63 the id keeps 53 significant bits: ids 2**63 + 1 and 2**63
    # share a key, and so share their draws.
    assert _philox_key(3, 2**63 + 1).tolist() == [3, 2**63]
    assert _philox_key(3, 2**63 + 1537).tolist() == [3, 2**63 + 2048]
    assert np.array_equal(RngStream(3, 2**63 + 1).uniforms(4), RngStream(3, 2**63).uniforms(4))
    assert _philox_key(2**53 - 1, 2**64 - 1025).tolist() == [2**53 - 1, 2**64 - 2048]


@pytest.mark.parametrize("stream_id", [2**64 - 1024, 2**64 - 5, 2**64 - 1])
def test_stream_ids_next_to_2_64_have_a_defined_key(stream_id):
    # These round to 2**64, which no uint64 holds; the key wraps to 0,
    # with no cast warning (pyproject.toml makes a RuntimeWarning an error).
    from uqmc.rng import _philox_key

    assert _philox_key(7, stream_id).tolist() == [7, 0]
    u = RngStream(7, stream_id).uniforms(3)
    assert [v.hex() for v in u] == [
        "0x1.be80697053d40p-1", "0x1.2e744337e3991p-2", "0x1.ae2e15f941aabp-2"
    ]
    assert np.array_equal(u, RngStream(7, 0).uniforms(3))
    assert np.array_equal(
        RngStream(7, stream_id).generator().random(2), RngStream(7, 0).generator().random(2)
    )


def test_threads_drawing_at_once_get_the_serial_bits():
    # Each thread resets its own Philox; threads drawing different streams
    # in lockstep, more of them than cores and switched often, must not
    # see each other's state.
    import sys
    import threading

    streams = [RngStream(31).split(0), RngStream(32, 2**63 + 5).advance(3), RngStream(33)]
    calls = [(c, n) for c in range(0, 400, 7) for n in (1, 5, 8)]
    want = [[s.advance(c).uniforms(n) for c, n in calls] for s in streams]
    got = [[] for _ in streams]
    barrier = threading.Barrier(len(streams), timeout=30)

    def draw(i):
        for c, n in calls:
            barrier.wait()
            got[i].append(streams[i].advance(c).uniforms(n))

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w, g in zip(want, got):
        assert len(g) == len(calls)
        assert all(np.array_equal(a, b) for a, b in zip(w, g))
