"""Differential test: ``SocialNetworkView.maintain`` against a copy-and-compare
reference.

``reference_maintain`` re-derives the view through ``SocialGraph``'s methods
and detects a change by snapshotting the graph before the pass and comparing
after it.  ``maintain`` edits the adjacency in place and tracks the edges it
flips instead.  Over random sequences of link weights and advertisements,
both must leave the same graph (vertex order included), return the same
value, and leave the same revision and staged advertisements.
"""

from hypothesis import given, settings, strategies as st

from dtnsim.social import HelloPayload, SocialNetworkView

OWNER = 0
NODES = range(8)
THRESHOLD = 0.01


def reference_maintain(view, now, *, threshold, weights):
    """``SocialNetworkView.maintain`` written as a copy, a rebuild and a compare."""
    graph = view.graph
    before = graph.copy()
    for j in sorted(weights):
        if j == view.owner:
            continue
        if weights[j] > threshold:
            graph.add_edge(view.owner, j)
            for k in view._advertised.get(j, ()):
                if k != j:
                    graph.add_edge(j, k)
        elif j in graph.vertices:
            advertised = view._advertised.pop(j, frozenset())
            graph.remove_edge(view.owner, j)
            for k in advertised:
                graph.remove_edge(j, k)
            graph.remove_vertex(j)
    for v in [v for v in graph.vertices if v != view.owner]:
        if graph.degree(v) == 0:
            graph.remove_vertex(v)
    changed = graph != before
    if changed:
        view.revision += 1
    return changed


weight = st.sampled_from([0.0, THRESHOLD, 0.005, 0.02, 0.5])


@st.composite
def rounds(draw):
    """One hello-and-maintain round: hellos heard, then the weights read."""
    hellos = []
    for sender in draw(st.lists(st.sampled_from(NODES), max_size=4)):
        if sender == OWNER:
            continue
        neighbors = draw(st.frozensets(st.sampled_from(NODES)))
        hellos.append(HelloPayload(sender=sender, neighbor_list=neighbors - {sender}))
    weights = {j: draw(weight) for j in draw(st.sets(st.sampled_from(NODES)))}
    return hellos, weights


@settings(max_examples=300)
@given(
    isolated=st.sets(st.sampled_from(NODES)),
    sequence=st.lists(rounds(), min_size=1, max_size=8),
)
def test_maintain_matches_the_copy_and_compare_reference(isolated, sequence):
    fast, slow = SocialNetworkView(OWNER), SocialNetworkView(OWNER)
    # vertices no edge vouches for: the engine never leaves one, but a view
    # built by hand may start with some
    for v in sorted(isolated):
        fast.graph.add_vertex(v)
        slow.graph.add_vertex(v)
    for now, (hellos, weights) in enumerate(sequence):
        for payload in hellos:
            assert fast.apply_hello(payload) == slow.apply_hello(payload)
        got = fast.maintain(float(now), threshold=THRESHOLD, weights=weights)
        want = reference_maintain(slow, float(now), threshold=THRESHOLD, weights=weights)
        assert got == want
        assert list(fast.graph._adj.items()) == list(slow.graph._adj.items())
        assert fast.revision == slow.revision
        assert fast._advertised == slow._advertised
