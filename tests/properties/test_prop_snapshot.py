"""Property-based tests for the canonical snapshot pickler.

Sets are written as persistent ids with a canonically ordered element
list and an explicit reference number (``repro/simnet/snapshot.py``).
For any nested value built from sets, frozensets, dicts, lists and
shared references: the restore equals the original, every shared
container restores as one shared object, and the blob is a byte
fixed-point of ``snapshot ∘ restore``.
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.snapshot import restore_system, snapshot_system, verify_roundtrip

atoms = st.integers(min_value=-(2**70), max_value=2**70) | st.text(max_size=6)

#: Hashable values: atoms, tuples of them, frozensets inside frozensets.
hashables = st.recursive(
    atoms,
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=4),
    max_leaves=10,
)


@st.composite
def shared_values(draw):
    """A value whose containers may be referenced from several places:
    a pool of frozensets (later ones may hold earlier ones as elements)
    and mutable sets, drawn into lists, dicts and sets more than once."""
    frozen = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        elements = draw(st.lists(hashables, max_size=3))
        if frozen:
            elements += draw(st.lists(st.sampled_from(frozen), max_size=2))
        frozen.append(frozenset(elements))
    pool = frozen + draw(st.lists(st.sets(hashables, max_size=4), max_size=2))
    leaves = hashables | st.sets(hashables, max_size=4)
    if pool:
        leaves = leaves | st.sampled_from(pool)
    value = draw(
        st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(hashables, inner, max_size=4),
            max_leaves=16,
        )
    )
    return [pool, value]


def _pair_containers(original, restored, seen):
    """Walk both graphs in step; ``seen`` maps id(original container) to
    its restored counterpart and fails if one original maps to two."""
    if isinstance(original, (list, dict, set, frozenset)):
        if id(original) in seen:
            assert seen[id(original)] is restored, "aliasing lost"
            return
        seen[id(original)] = restored
    if isinstance(original, (list, tuple)):
        for a, b in zip(original, restored):
            _pair_containers(a, b, seen)
    elif isinstance(original, dict):
        for key, value in original.items():
            (restored_key,) = [k for k in restored if k == key]
            _pair_containers(key, restored_key, seen)
            _pair_containers(value, restored[key], seen)
    elif isinstance(original, (set, frozenset)):
        for element in original:
            (match,) = [e for e in restored if e == element]
            _pair_containers(element, match, seen)


class TestCanonicalSnapshot:
    @settings(max_examples=150, deadline=None)
    @given(value=shared_values())
    def test_restore_equals_original_and_keeps_aliasing(self, value):
        restored = restore_system(snapshot_system(value))
        assert restored == value
        seen = {}
        _pair_containers(value, restored, seen)
        mutable = [r for r in seen.values() if type(r) in (list, dict, set)]
        assert len({id(r) for r in mutable}) == len(mutable)

    @settings(max_examples=150, deadline=None)
    @given(value=shared_values())
    def test_blob_is_a_byte_fixed_point(self, value):
        blob = snapshot_system(value, verify=True)
        assert snapshot_system(restore_system(blob)) == blob
        assert verify_roundtrip(blob) == value


def test_outer_frozenset_aliased_twice_restores_as_one_object():
    # The pickler numbers the outer frozenset before its inner ones but
    # the unpickler builds the inner ones first; references numbered by
    # arrival order would restore "again" as an inner frozenset.
    inner = frozenset({1, 2})
    outer = frozenset({inner, 3})
    restored = restore_system(snapshot_system({"outer": outer, "again": outer, "inner": inner}))
    assert restored["outer"] == outer
    assert restored["again"] is restored["outer"]
    (restored_inner,) = [e for e in restored["outer"] if e == inner]
    assert restored["inner"] is restored_inner


def test_nested_frozensets_are_ordered_by_their_canonical_spelling():
    # 8 and 0 share a hash slot, so frozenset([8, 0]) iterates 8, 0 but
    # restores from its sorted elements as 0, 8. Ordering the outer set
    # by plain repr would then change the bytes of the next snapshot.
    collided = frozenset([8, 0])
    assert list(collided) == [8, 0]
    for value in ({collided, frozenset([5])}, {(collided,), (frozenset([5]),)}):
        blob = snapshot_system(value, verify=True)
        assert restore_system(blob) == value
