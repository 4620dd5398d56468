from perfbench.compare import verdict


def runs(values):
    return list(enumerate(values))


def test_worse_when_the_median_moves_past_the_bound():
    base = runs([10.0, 10.1, 9.9, 10.0])
    assert verdict(base, runs([11.5, 11.6, 11.4, 11.5]), "lower", 0.1) == "worse"
    assert verdict(base, runs([8.5, 8.6, 8.4, 8.5]), "higher", 0.1) == "worse"


def test_better_needs_nine_in_ten_wins_and_a_gap_beyond_the_base_spread():
    base = runs([10.0, 10.1, 9.9, 10.0, 10.05])
    assert verdict(base, runs([9.0, 9.1, 8.9, 9.0, 9.05]), "lower", 0.1) == "better"
    # wins every pair but by less than the base's quartile distance
    assert verdict(base, runs([9.95, 10.05, 9.85, 9.95, 10.0]), "lower", 0.1) != "better"


def test_unresolved_when_a_side_spreads_wider_than_the_bound():
    base = runs([8.0, 10.0, 12.0, 9.0, 11.0])
    change = runs([8.5, 10.5, 11.5, 9.5, 10.0])
    assert verdict(base, change, "lower", 0.1) == "unresolved"


def test_unchanged_within_the_bound():
    base = runs([10.0, 10.1, 9.9, 10.0])
    assert verdict(base, runs([10.05, 10.0, 9.95, 10.1]), "lower", 0.1) == "unchanged"
