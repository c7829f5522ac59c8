import numpy as np

from sgnn import rng as R


class TestStreamKey:
    def test_thousandths_keep_their_integer_keys(self):
        assert [R.stream_key(p) for p in (0.0, 0.05, 0.15, 0.25)] == [0, 50, 150, 250]
        assert all(R.stream_key(k / 1000) == k for k in range(1001))

    def test_nearby_values_get_distinct_keys_and_streams(self):
        a, b = R.stream_key(0.0571), R.stream_key(0.0579)
        assert a != b
        assert min(a, b) >= 2 ** 64          # off the grid of thousandths
        ra = R.derive(0, 3, 0, a).random(4)
        rb = R.derive(0, 3, 0, b).random(4)
        assert not np.array_equal(ra, rb)
        assert not np.array_equal(ra, R.derive(0, 3, 0, 57).random(4))

    def test_values_off_the_grid_get_distinct_keys_above_it(self):
        values = (-0.05, 0.0005, 1e300, float("inf"), float("-inf"), float("nan"))
        keys = [R.stream_key(v) for v in values]
        assert len(set(keys)) == len(keys)
        assert min(keys) >= 2 ** 64
        R.derive(0, 5, 0, max(keys)).random()     # every key seeds a stream
