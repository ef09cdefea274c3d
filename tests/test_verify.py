"""The cross-check layer: its instance streams, which fix the graphs CI
and the tests build, and whether a check can fail at all."""

import random

from interlacepoly import interlace, verify


class TestInstanceStreams:
    def test_exhaustive_streams_in_slot_order(self):
        # Bit i of the mask is the i-th slot: (0,1), (0,2), (1,2) without
        # loops; (0,0), (0,1), (1,1) with them.
        assert [g.to_text() for g in verify.all_simple_graphs(3)] == [
            "3 0\n", "3 1\n0 1\n", "3 1\n0 2\n", "3 2\n0 1\n0 2\n", "3 1\n1 2\n",
            "3 2\n0 1\n1 2\n", "3 2\n0 2\n1 2\n", "3 3\n0 1\n0 2\n1 2\n"]
        assert [g.to_text() for g in verify.all_graphs_with_loops(2)] == [
            "2 0\n", "2 1\n0 0\n", "2 1\n0 1\n", "2 2\n0 0\n0 1\n", "2 1\n1 1\n",
            "2 2\n0 0\n1 1\n", "2 2\n0 1\n1 1\n", "2 3\n0 0\n0 1\n1 1\n"]

    def test_random_graphs_draw_one_bit_per_slot(self):
        rng = random.Random(1)
        g = verify.random_simple_graph(5, rng)
        assert g.to_text() == "5 5\n0 2\n0 3\n0 4\n1 2\n3 4\n"
        assert rng.getrandbits(32) == 1930549411
        rng = random.Random(1)
        g = verify.random_graph_with_loops(5, rng)
        assert g.to_text() == "5 7\n0 1\n0 2\n0 3\n0 4\n2 2\n3 3\n4 4\n"
        assert rng.getrandbits(32) == 901749037


def test_eq3_fails_on_a_corrupted_closed_profile(monkeypatch):
    # One extra subset at (rank 1, nullity 1) changes q2 closed and so
    # qn_from_q2, but not the recursion it is checked against.
    real = interlace._closed_profile

    def corrupted(adj, n):
        profile = list(real(adj, n))
        if n:
            profile[(n + 1) + 1] += 1
        return profile

    monkeypatch.setattr(interlace, "_closed_profile", corrupted)
    assert not verify.check_eq3(4)
