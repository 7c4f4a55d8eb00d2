"""Tests for the scaling of times to the host's reference speed.  Run from
the repository root with

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import UNIT_S, WINDOW_S, Sampler  # noqa: E402


def sampler(at, took):
    s = Sampler()
    s.at, s.took = list(at), list(took)
    return s


class ScaledTest(unittest.TestCase):
    def test_host_at_reference_speed_leaves_times_alone(self):
        s = sampler([0.0, 0.5, 1.0], [UNIT_S] * 3)
        self.assertAlmostEqual(s.scaled(0.0, 1.0), 1.0)

    def test_host_at_half_speed_halves_times(self):
        s = sampler([0.0, 0.5, 1.0], [2 * UNIT_S] * 3)
        self.assertAlmostEqual(s.scaled(0.2, 0.4), 0.1)

    def test_each_stretch_takes_the_speed_near_it(self):
        # Fast for the first 3 s, then at half speed.
        at = [0.1 * i for i in range(61)]
        took = [UNIT_S if t < 3 else 2 * UNIT_S for t in at]
        s = sampler(at, took)
        self.assertAlmostEqual(s.scaled(0.0, 2.0), 2.0)
        self.assertAlmostEqual(s.scaled(4.0, 6.0), 1.0)
        self.assertAlmostEqual(s.scaled(0.0, 6.0),
                               s.scaled(0.0, 3.0) + s.scaled(3.0, 6.0))

    def test_interval_without_samples_nearby_takes_the_nearest(self):
        s = sampler([0.0, 10.0], [UNIT_S, 4 * UNIT_S])
        self.assertGreater(10.0 - 8.0, WINDOW_S)
        self.assertAlmostEqual(s.scaled(8.0, 9.0), 0.25)
        self.assertAlmostEqual(s.scaled(1.0, 2.0), 1.0)

    def test_now_excludes_time_spent_in_units(self):
        s = Sampler()
        t0 = s.now()
        s.sample()
        self.assertEqual(len(s.took), 1)
        self.assertGreaterEqual(s.spent, s.took[0])
        self.assertLess(s.now() - t0, s.took[0])


if __name__ == "__main__":
    unittest.main()
