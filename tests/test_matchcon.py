from kronscale.matchcon import is_single_cycle


def test_one_six_cycle_is_a_single_cycle():
    assert is_single_cycle([(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)], [])


def test_two_disjoint_triangles_are_not_a_single_cycle():
    assert not is_single_cycle([(0, 1), (3, 4)], [(1, 2), (4, 5)], [(2, 0), (5, 3)])


def test_a_degree_four_vertex_is_not_a_single_cycle():
    # a figure eight: two triangles sharing vertex 0
    assert not is_single_cycle([(0, 1), (3, 4)], [(1, 2), (4, 0)], [(2, 0), (0, 3)])
